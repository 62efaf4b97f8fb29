(* Serial-vs-parallel comparison driver (see the .mli). *)

module Machine = Interp.Machine
module Rvalue = Interp.Rvalue
module Driver = Loopa.Driver

type run_outcome =
  | Finished of Machine.outcome
  | Trapped of { msg : string; clock : int; output : string }

type result = {
  target : string;
  serial : run_outcome;
  parallel : run_outcome;
  identical : bool;
  diffs : string list;
  rows : Report.Calibration.row list;
  runner : Runner.t;
  serial_wall : float;
  parallel_wall : float;
}

let divergence_failure ~target ~source diffs =
  {
    Driver.stage = Driver.Parrun;
    fingerprint =
      Printf.sprintf "parrun:divergence@%s:%s" target (Driver.hash8 source);
    message =
      Printf.sprintf "parallel run diverged from serial on %s: %s" target
        (String.concat "; " diffs);
  }

(* ---- per-eligible-loop wall timing via the event hooks ----

   The listener tracks the current function with call_enter/exit (loop
   events report lids of the current function) and stamps enter/exit of
   the loops it was asked to time. Committed invocations in the parallel
   pass fire no loop events — their time is the runner's delegate wall,
   added separately. *)

let make_timer (keys : (string * int) list) :
    Interp.Events.hooks * ((string * int, float) Hashtbl.t) =
  let totals : (string * int, float) Hashtbl.t = Hashtbl.create 16 in
  let wanted = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace wanted k ()) keys;
  let fstack = ref [ "main" ] in
  let tstack = ref [] in
  let current () = match !fstack with f :: _ -> f | [] -> "" in
  let hooks =
    {
      Interp.Events.no_hooks with
      Interp.Events.on_call_enter =
        (fun ~fname ~clock:_ -> fstack := fname :: !fstack);
      on_call_exit =
        (fun ~fname:_ ~clock:_ ->
          match !fstack with _ :: tl -> fstack := tl | [] -> ());
      on_loop_enter =
        (fun ~lid ~clock:_ ->
          let key = (current (), lid) in
          if Hashtbl.mem wanted key then
            tstack := (key, Unix.gettimeofday ()) :: !tstack);
      on_loop_exit =
        (fun ~lid ~clock:_ ->
          match !tstack with
          | ((f, l), t0) :: tl when l = lid && f = current () ->
              tstack := tl;
              let dt = Unix.gettimeofday () -. t0 in
              let prev =
                Option.value ~default:0. (Hashtbl.find_opt totals (f, l))
              in
              Hashtbl.replace totals (f, l) (prev +. dt)
          | _ -> ());
    }
  in
  (hooks, totals)

(* ---- outcome comparison (floats bitwise; NaN payloads count) ---- *)

let rv_str (v : Rvalue.rv) =
  match v with
  | Rvalue.Vint i -> Printf.sprintf "int %Ld" i
  | Rvalue.Vfloat f ->
      Printf.sprintf "float %h (bits %Lx)" f (Int64.bits_of_float f)
  | Rvalue.Vbool b -> Printf.sprintf "bool %b" b

let rv_equal a b =
  match (a, b) with
  | Rvalue.Vfloat x, Rvalue.Vfloat y ->
      Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> a = b

let compare_outcomes (a : run_outcome) (b : run_outcome) : string list =
  let diffs = ref [] in
  let check name eq fmt_a fmt_b =
    if not eq then
      diffs := Printf.sprintf "%s: serial %s, parallel %s" name fmt_a fmt_b :: !diffs
  in
  (match (a, b) with
  | Finished oa, Finished ob ->
      check "return value"
        (match (oa.Machine.ret, ob.Machine.ret) with
        | None, None -> true
        | Some x, Some y -> rv_equal x y
        | _ -> false)
        (match oa.Machine.ret with Some v -> rv_str v | None -> "none")
        (match ob.Machine.ret with Some v -> rv_str v | None -> "none");
      check "stop reason"
        (oa.Machine.stop = ob.Machine.stop)
        (Machine.stop_reason_to_string oa.Machine.stop)
        (Machine.stop_reason_to_string ob.Machine.stop);
      check "clock"
        (oa.Machine.clock = ob.Machine.clock)
        (string_of_int oa.Machine.clock)
        (string_of_int ob.Machine.clock);
      check "output"
        (String.equal oa.Machine.output ob.Machine.output)
        (Printf.sprintf "%d bytes" (String.length oa.Machine.output))
        (Printf.sprintf "%d bytes" (String.length ob.Machine.output));
      check "heap words"
        (oa.Machine.mem_words = ob.Machine.mem_words)
        (string_of_int oa.Machine.mem_words)
        (string_of_int ob.Machine.mem_words);
      check "memory accesses"
        (oa.Machine.mem_accesses = ob.Machine.mem_accesses)
        (string_of_int oa.Machine.mem_accesses)
        (string_of_int ob.Machine.mem_accesses);
      check "memory events"
        (oa.Machine.mem_events = ob.Machine.mem_events)
        (string_of_int oa.Machine.mem_events)
        (string_of_int ob.Machine.mem_events)
  | Trapped ta, Trapped tb ->
      check "trap" (String.equal ta.msg tb.msg) ta.msg tb.msg;
      check "trap clock" (ta.clock = tb.clock) (string_of_int ta.clock)
        (string_of_int tb.clock);
      check "output"
        (String.equal ta.output tb.output)
        (Printf.sprintf "%d bytes" (String.length ta.output))
        (Printf.sprintf "%d bytes" (String.length tb.output))
  | Finished _, Trapped t ->
      diffs :=
        [ Printf.sprintf "serial finished but parallel trapped (%s)" t.msg ]
  | Trapped t, Finished _ ->
      diffs :=
        [ Printf.sprintf "serial trapped (%s) but parallel finished" t.msg ]);
  List.rev !diffs

(* ---- a single pass ---- *)

exception Internal of Driver.failure

let run_pass ~fuel ~hooks ~install (modul : Ir.Func.modul) :
    run_outcome * float =
  let m = Machine.create ~hooks ~fuel modul in
  install m;
  let t0 = Unix.gettimeofday () in
  let out =
    try Finished (Machine.run_main m) with
    | Rvalue.Trap (k, msg) ->
        Trapped
          {
            msg = Rvalue.trap_kind_to_string k ^ ": " ^ msg;
            clock = Machine.clock m;
            output = Machine.output_since m 0;
          }
    | Rvalue.Runtime_error _ as exn ->
        raise (Internal (Driver.crash_failure ~stage:Driver.Parrun exn))
  in
  (out, Unix.gettimeofday () -. t0)

(* ---- predicted DOALL speedups from the cost model ---- *)

let predicted_speedups (ms : Loopa.Classify.module_static) ~fuel :
    (string * int, float) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  (match Driver.profile_result ~fuel ~static_prune:true ms with
  | Error _ -> ()
  | Ok profile ->
      let report =
        try
          Loopa.Evaluate.evaluate profile
            (Loopa.Config.of_string "reduc1-dep0-fn1 DOALL")
        with exn -> raise (Internal (Driver.crash_failure ~stage:Driver.Parrun exn))
      in
      List.iter
        (fun (lr : Loopa.Evaluate.loop_result) ->
          if lr.Loopa.Evaluate.final_cost > 0. then
            Hashtbl.replace tbl
              (lr.Loopa.Evaluate.fname, lr.Loopa.Evaluate.lid)
              (lr.Loopa.Evaluate.serial_cost /. lr.Loopa.Evaluate.final_cost))
        report.Loopa.Evaluate.loops);
  tbl

(* ---- calibration rows ---- *)

let build_rows (ms : Loopa.Classify.module_static) runner
    (serial_walls : (string * int, float) Hashtbl.t)
    (par_walls : (string * int, float) Hashtbl.t)
    (predicted : (string * int, float) Hashtbl.t) :
    Report.Calibration.row list =
  let stats = Runner.loop_stats runner in
  let stat_for key =
    List.find_opt
      (fun (s : Runner.loop_stats) -> (s.Runner.st_fname, s.Runner.st_lid) = key)
      stats
  in
  let header_of (fname, lid) =
    match Hashtbl.find_opt ms.Loopa.Classify.funcs fname with
    | Some fs when lid < Array.length fs.Loopa.Classify.loops ->
        fs.Loopa.Classify.loops.(lid).Loopa.Classify.header
    | _ -> -1
  in
  List.map
    (fun ((key : string * int), verdict) ->
      let fname, lid = key in
      let serial_s =
        Option.value ~default:0. (Hashtbl.find_opt serial_walls key)
      in
      let eligible, why, quarantined =
        match verdict with
        | Ok fp -> (true, "", Quarantine.mem (Runner.quarantine runner) fp)
        | Error why -> (false, why, false)
      in
      let st = stat_for key in
      let get f = match st with Some s -> f s | None -> 0 in
      let committed = get (fun s -> s.Runner.st_committed) in
      let par_hook =
        Option.value ~default:0. (Hashtbl.find_opt par_walls key)
      in
      let par_delegate =
        match st with Some s -> s.Runner.st_par_wall | None -> 0.
      in
      let parallel_s = par_hook +. par_delegate in
      let measured =
        if committed > 0 && serial_s > 0. && parallel_s > 0. then
          Some (serial_s /. parallel_s)
        else None
      in
      {
        Report.Calibration.fname;
        lid;
        header = header_of key;
        eligible;
        why;
        invocations = get (fun s -> s.Runner.st_invocations);
        sharded = get (fun s -> s.Runner.st_sharded);
        committed;
        rollbacks = get (fun s -> s.Runner.st_rollbacks);
        conflicts = get (fun s -> s.Runner.st_conflicts);
        quarantined;
        serial_s;
        parallel_s;
        measured;
        predicted = Hashtbl.find_opt predicted key;
      })
    (Runner.eligibility runner)

(* ---- the guarded comparison ---- *)

let run ?knobs ?quarantine ?repro_dir ?(fuel = Loopa.Config.default_fuel)
    ?(predict = true) ~target (source : string) :
    (result, Driver.failure) Stdlib.result =
  match Frontend.compile source with
  | Error e -> Error (Driver.compile_failure e)
  | Ok modul -> (
      match Driver.prepare modul with
      | exception Ir.Verifier.Invalid_ir msg ->
          Error (Driver.verifier_failure ~stage:Driver.Prepare msg)
      | exception exn -> Error (Driver.crash_failure ~stage:Driver.Prepare exn)
      | ms -> (
          let runner =
            Runner.create ?knobs ?quarantine ?repro_dir ~target ~source ms
          in
          let keys = List.map fst (Runner.eligibility runner) in
          try
            let serial_hooks, serial_walls = make_timer keys in
            let serial, serial_wall =
              run_pass ~fuel ~hooks:serial_hooks ~install:(fun _ -> ()) modul
            in
            let par_hooks, par_walls = make_timer keys in
            let parallel, parallel_wall =
              run_pass ~fuel ~hooks:par_hooks
                ~install:(Runner.install runner)
                modul
            in
            let diffs = compare_outcomes serial parallel in
            let predicted =
              if predict then predicted_speedups ms ~fuel
              else Hashtbl.create 1
            in
            let rows = build_rows ms runner serial_walls par_walls predicted in
            Ok
              {
                target;
                serial;
                parallel;
                identical = diffs = [];
                diffs;
                rows;
                runner;
                serial_wall;
                parallel_wall;
              }
          with Internal f -> Error f))

(* ---- bundle replay ---- *)

let replay (b : Repro.Bundle.t) : Repro.Pipeline.verdict =
  let knobs =
    { Runner.default_knobs with Runner.jobs = 2; min_trip = 1; round_chunk = 4 }
  in
  match
    run ~knobs ~fuel:b.Repro.Bundle.fuel ~predict:false
      ~target:b.Repro.Bundle.target b.Repro.Bundle.source
  with
  | Error f ->
      if
        Driver.same_fingerprint f.Driver.fingerprint b.Repro.Bundle.fingerprint
      then Repro.Pipeline.Reproduced
      else Repro.Pipeline.Changed f
  | Ok r -> (
      let confl = Runner.conflicts r.runner in
      if
        List.exists
          (fun (c : Runner.conflict_record) ->
            Driver.same_fingerprint c.Runner.cf_fingerprint
              b.Repro.Bundle.fingerprint)
          confl
      then Repro.Pipeline.Reproduced
      else
        match confl with
        | c :: _ ->
            Repro.Pipeline.Changed
              {
                Driver.stage = Driver.Parrun;
                fingerprint = c.Runner.cf_fingerprint;
                message = c.Runner.cf_message;
              }
        | [] ->
            if not r.identical then
              Repro.Pipeline.Changed
                (divergence_failure ~target:b.Repro.Bundle.target
                   ~source:b.Repro.Bundle.source r.diffs)
            else Repro.Pipeline.Vanished)
