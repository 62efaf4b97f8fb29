(* In-memory span recorder for the traced run. Spans are opened by the
   benchmark around its own calls into each layer; nothing inside the
   program is instrumented. A span's self time is its duration minus the
   durations of its direct children, and a layer's self time is the sum over
   the spans that carry its name.

   Two kinds of span are not timed around a call:
   - "trace.extra" spans time calls the traced run adds only to split an
     opaque call into layers (an unhooked interpreter run, a second
     compile). They are left out of every layer and reported separately.
   - derived spans take their duration from a result field or from a
     trace.extra call, and sit inside the opaque call they split. *)

type span = {
  id : int;
  parent : int;  (** -1 for a task's root span *)
  task : int;
  name : string;
  t0 : float;
  dur : float;
  derived : bool;
}

type t = {
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable task : int;
}

let extra = "trace.extra"

let create () = { spans = []; next_id = 0; stack = []; task = -1 }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let current t = match t.stack with id :: _ -> id | [] -> -1

let record t ~id ~parent ~name ~t0 ~dur ~derived =
  t.spans <- { id; parent; task = t.task; name; t0; dur; derived } :: t.spans

(* Time [f] as a child of the innermost open span and return its result
   with the span's duration. The span is recorded even when [f] raises. *)
let timed t name f =
  let id = fresh_id t in
  let parent = current t in
  t.stack <- id :: t.stack;
  let t0 = Unix.gettimeofday () in
  let close () =
    let dur = Unix.gettimeofday () -. t0 in
    t.stack <- List.tl t.stack;
    record t ~id ~parent ~name ~t0 ~dur ~derived:false;
    dur
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
      ignore (close ());
      raise e

let with_span t name f = fst (timed t name f)

(* A new task: its root span is named "task", so its self time is the
   benchmark's own glue between layer calls. *)
let task t f =
  t.task <- t.task + 1;
  with_span t "task" f

(* Add a derived child of the innermost open span. *)
let derived t name ~t0 ~dur =
  record t ~id:(fresh_id t) ~parent:(current t) ~name ~t0 ~dur ~derived:true

let total_extra t =
  List.fold_left
    (fun acc s -> if s.name = extra then acc +. s.dur else acc)
    0. t.spans

(* Self time per span name, trace.extra spans excluded. *)
let self_times t : (string, float) Hashtbl.t =
  let child_sum = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          (s.dur +. Option.value ~default:0. (Hashtbl.find_opt child_sum s.parent)))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.name <> extra then
        let self =
          s.dur -. Option.value ~default:0. (Hashtbl.find_opt child_sum s.id)
        in
        Hashtbl.replace by_name s.name
          (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    t.spans;
  by_name

(* Chrome trace-event JSON (load it in Perfetto or chrome://tracing). *)
let write t path =
  let us f = Util.Json.Int (int_of_float (f *. 1e6)) in
  let event s =
    Util.Json.Obj
      [
        ("name", Util.Json.String s.name);
        ("ph", Util.Json.String "X");
        ("ts", us s.t0);
        ("dur", us s.dur);
        ("pid", Util.Json.Int 1);
        ("tid", Util.Json.Int 1);
        ( "args",
          Util.Json.Obj
            [
              ("id", Util.Json.Int s.id);
              ("parent", Util.Json.Int s.parent);
              ("task", Util.Json.Int s.task);
              ("derived", Util.Json.Bool s.derived);
            ] );
      ]
  in
  let events = List.rev_map event t.spans in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Util.Json.to_string
           (Util.Json.Obj [ ("traceEvents", Util.Json.List events) ])))
