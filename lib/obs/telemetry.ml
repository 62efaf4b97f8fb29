(* Spans, counters and histograms behind a sink (see the .mli). The null
   sink is the default: every instrumented call site degrades to a load of
   [state.sink] plus a call into a function that immediately returns, and
   counter/histogram handles are plain registry records, so a disabled
   process allocates nothing per event. [enable] swaps in the recording
   sink; nothing else changes at the call sites. *)

type span = {
  id : int;
  parent : int;
  depth : int;
  name : string;
  start_s : float;
  dur_s : float;
  attrs : (string * string) list;
}

type counter = { cname : string; mutable total : int }

(* Histogram buckets are log2: bucket [i] counts observations with
   [v <= 2^(i - 1)] exclusive of the previous bucket; the last bucket is
   +Inf. 40 buckets cover 1 .. ~5.5e11 — iteration counts and instruction
   totals both fit. *)
let n_buckets = 40

type histogram = {
  hname : string;
  mutable count : int;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
  buckets : int array; (* per-bucket (not cumulative) counts *)
}

type hist_snapshot = {
  count : int;
  sum : float;
  minimum : float;
  maximum : float;
  buckets : (float * int) list;
}

type open_span = {
  oid : int;
  oparent : int;
  odepth : int;
  oname : string;
  ostart : float;
  oattrs : (string * string) list;
}

type handle = int (* span id; -1 = the null handle *)

let null_handle : handle = -1

(* A sink sees every telemetry event. The instrumentation API calls through
   [state.sink] unconditionally; enabling telemetry is swapping this record. *)
type sink = {
  on_span_begin : string -> (string * string) list -> handle;
  on_span_end : handle -> (string * string) list -> unit;
  on_add : counter -> int -> unit;
  on_observe : histogram -> float -> unit;
}

let null_sink =
  {
    on_span_begin = (fun _ _ -> null_handle);
    on_span_end = (fun _ _ -> ());
    on_add = (fun _ _ -> ());
    on_observe = (fun _ _ -> ());
  }

type state = {
  mutable sink : sink;
  mutable recording : bool;
  mutable clock : unit -> float;
  mutable next_id : int;
  mutable stack : open_span list; (* innermost first *)
  mutable finished : span list; (* most recently finished first *)
  mutable n_finished : int;
  counters : (string, counter) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let state =
  {
    sink = null_sink;
    recording = false;
    clock = Sys.time;
    next_id = 0;
    stack = [];
    finished = [];
    n_finished = 0;
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 16;
  }

(* ---- the recording sink ---- *)

let finish (o : open_span) (now : float) (attrs : (string * string) list) =
  state.finished <-
    {
      id = o.oid;
      parent = o.oparent;
      depth = o.odepth;
      name = o.oname;
      start_s = o.ostart;
      (* the clock is monotone, but defend the invariant anyway *)
      dur_s = Float.max 0.0 (now -. o.ostart);
      attrs = o.oattrs @ attrs;
    }
    :: state.finished;
  state.n_finished <- state.n_finished + 1

let recording_sink =
  {
    on_span_begin =
      (fun name attrs ->
        let id = state.next_id in
        state.next_id <- id + 1;
        let parent, depth =
          match state.stack with
          | o :: _ -> (o.oid, o.odepth + 1)
          | [] -> (-1, 0)
        in
        state.stack <-
          {
            oid = id;
            oparent = parent;
            odepth = depth;
            oname = name;
            ostart = state.clock ();
            oattrs = attrs;
          }
          :: state.stack;
        id);
    on_span_end =
      (fun h attrs ->
        if h >= 0 then
          (* Close everything opened after [h] (leaked by misuse; with_span
             never leaks), then [h] itself. If [h] is not on the stack at
             all — ended twice, or recorded before a reset — do nothing. *)
          if List.exists (fun o -> o.oid = h) state.stack then begin
            let now = state.clock () in
            let rec pop () =
              match state.stack with
              | o :: rest ->
                  state.stack <- rest;
                  if o.oid = h then finish o now attrs
                  else begin
                    finish o now [ ("outcome", "leaked") ];
                    pop ()
                  end
              | [] -> ()
            in
            pop ()
          end);
    on_add = (fun c n -> c.total <- c.total + n);
    on_observe =
      (fun (h : histogram) v ->
        h.count <- h.count + 1;
        h.sum <- h.sum +. v;
        if h.count = 1 then begin
          h.lo <- v;
          h.hi <- v
        end
        else begin
          h.lo <- Float.min h.lo v;
          h.hi <- Float.max h.hi v
        end;
        (* bucket i holds v <= 2^i (i = 0 .. n-2); the last is +Inf *)
        let rec idx i bound =
          if i >= n_buckets - 1 then n_buckets - 1
          else if v <= bound then i
          else idx (i + 1) (bound *. 2.0)
        in
        let i = idx 0 1.0 in
        h.buckets.(i) <- h.buckets.(i) + 1);
  }

(* ---- lifecycle ---- *)

let enabled () = state.recording

let enable () =
  state.recording <- true;
  state.sink <- recording_sink

let disable () =
  state.recording <- false;
  state.sink <- null_sink

let reset () =
  state.next_id <- 0;
  state.stack <- [];
  state.finished <- [];
  state.n_finished <- 0;
  Hashtbl.iter (fun _ c -> c.total <- 0) state.counters;
  Hashtbl.iter
    (fun _ (h : histogram) ->
      h.count <- 0;
      h.sum <- 0.0;
      h.lo <- 0.0;
      h.hi <- 0.0;
      Array.fill h.buckets 0 n_buckets 0)
    state.histograms

let set_clock = function
  | Some f -> state.clock <- f
  | None -> state.clock <- Sys.time

(* ---- spans ---- *)

let span_begin ?(attrs = []) name = state.sink.on_span_begin name attrs

let span_end ?(attrs = []) h = state.sink.on_span_end h attrs

let with_span ?attrs name f =
  let h = span_begin ?attrs name in
  match f () with
  | v ->
      span_end h;
      v
  | exception e ->
      (* close the span before the exception keeps unwinding, so a Trap or
         Budget_stop deep in the interpreter still leaves a well-formed
         span tree *)
      span_end ~attrs:[ ("outcome", "raised") ] h;
      raise e

let spans () =
  (* finished is most-recent-first; ids increase in start order *)
  List.sort (fun a b -> compare a.id b.id) state.finished

let open_spans () = List.length state.stack

(* ---- counters ---- *)

let counter name =
  match Hashtbl.find_opt state.counters name with
  | Some c -> c
  | None ->
      let c = { cname = name; total = 0 } in
      Hashtbl.replace state.counters name c;
      c

let add c n = state.sink.on_add c n

let incr c = state.sink.on_add c 1

let value c = c.total

(* ---- histograms ---- *)

let histogram name =
  match Hashtbl.find_opt state.histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          hname = name;
          count = 0;
          sum = 0.0;
          lo = 0.0;
          hi = 0.0;
          buckets = Array.make n_buckets 0;
        }
      in
      Hashtbl.replace state.histograms name h;
      h

let observe h v = state.sink.on_observe h v

(* ---- snapshots ---- *)

let counters () =
  Hashtbl.fold (fun name c acc -> (name, c.total) :: acc) state.counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot_of (h : histogram) : hist_snapshot =
  let cumulative = ref 0 in
  let buckets =
    List.init n_buckets (fun i ->
        cumulative := !cumulative + h.buckets.(i);
        let le =
          if i = n_buckets - 1 then Float.infinity else Float.pow 2.0 (float_of_int i)
        in
        (le, !cumulative))
  in
  { count = h.count; sum = h.sum; minimum = h.lo; maximum = h.hi; buckets }

let histograms () =
  Hashtbl.fold (fun name h acc -> (name, snapshot_of h) :: acc) state.histograms []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---- absorption: merging a forked worker's telemetry ----

   A pool worker (Exec.Pool) inherits this registry at fork, resets it,
   records its own spans/counters/histograms, and ships them back over the
   IPC channel. The parent splices them in here so fleet-wide exports
   (--trace/--prom, heartbeat deltas) see one registry. Absorbed spans are
   re-identified against the parent's id counter; parent links that point
   inside the absorbed batch are preserved, anything else becomes a root. *)

let absorb ~(spans : span list) ~(counters : (string * int) list) =
  if state.recording then begin
    (match spans with
    | [] -> ()
    | _ ->
        let base =
          List.fold_left (fun m (s : span) -> min m s.id) max_int spans
        in
        let ids = List.map (fun (s : span) -> s.id) spans in
        let shift = state.next_id - base in
        let top = List.fold_left max 0 (List.map (fun i -> i + shift) ids) in
        List.iter
          (fun (s : span) ->
            state.finished <-
              {
                s with
                id = s.id + shift;
                parent =
                  (if List.mem s.parent ids then s.parent + shift else -1);
              }
              :: state.finished;
            state.n_finished <- state.n_finished + 1)
          spans;
        state.next_id <- top + 1);
    List.iter (fun (name, d) -> if d <> 0 then (counter name).total <- (counter name).total + d) counters
  end

(* Copies, not the registry records: [reset] zeroes those in place, and a
   worker resets between taking its histograms and the parent absorbing
   them. *)
let wire_histograms () =
  Hashtbl.fold
    (fun _ (h : histogram) acc ->
      if h.count > 0 then { h with buckets = Array.copy h.buckets } :: acc
      else acc)
    state.histograms []

let absorb_histograms (ws : histogram list) =
  if state.recording then
    List.iter
      (fun (w : histogram) ->
        let h = histogram w.hname in
        if h.count = 0 then begin
          h.lo <- w.lo;
          h.hi <- w.hi
        end
        else begin
          h.lo <- Float.min h.lo w.lo;
          h.hi <- Float.max h.hi w.hi
        end;
        h.count <- h.count + w.count;
        h.sum <- h.sum +. w.sum;
        Array.iteri (fun i b -> h.buckets.(i) <- h.buckets.(i) + b) w.buckets)
      ws

(* ---- marks ---- *)

type mark = { m_spans : int; m_counters : (string * int) list }

let mark () = { m_spans = state.n_finished; m_counters = counters () }

let since (m : mark) =
  let fresh = state.n_finished - m.m_spans in
  let newer = List.filteri (fun i _ -> i < fresh) state.finished in
  let spans = List.sort (fun a b -> compare a.id b.id) newer in
  let deltas =
    List.filter_map
      (fun (name, v) ->
        let before =
          Option.value ~default:0 (List.assoc_opt name m.m_counters)
        in
        if v - before <> 0 then Some (name, v - before) else None)
      (counters ())
  in
  (spans, deltas)
