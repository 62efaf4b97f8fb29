(* Telemetry invariants: the null sink records nothing and instrumentation
   does not perturb pipeline results (the "zero-cost when disabled"
   contract), spans close on every exit path including injected faults, and
   the exporters emit well-formed Chrome-trace JSON / Prometheus text /
   checkpoint snapshots. Telemetry state is process-wide, so every test
   starts by pinning it (enable/disable + reset) and ends disabled. *)

module T = Obs.Telemetry
module E = Obs.Export

let contains = Astring_contains.contains

let src =
  {|
fn main() -> int {
  var a: int[] = new int[64];
  var s: int = 0;
  for (var i: int = 0; i < 63; i = i + 1) {
    a[i] = i * 2;
    s = s + a[i];
  }
  print_int(s);
  return 0;
}
|}

let teardown () =
  T.disable ();
  T.set_clock None;
  T.reset ()

(* A deterministic clock: each read advances one millisecond. *)
let install_tick_clock () =
  let t = ref 0.0 in
  T.set_clock
    (Some
       (fun () ->
         t := !t +. 0.001;
         !t))

(* ---- disabled-cost invariant ---- *)

let test_null_sink_records_nothing () =
  teardown ();
  (* a full pipeline run plus direct hits on every primitive *)
  ignore (Loopa.Driver.analyze_source src);
  let c = T.counter "test.null.c" and h = T.histogram "test.null.h" in
  T.add c 41;
  T.incr c;
  T.observe h 3.5;
  T.span_end (T.span_begin "test.null.span");
  T.with_span "test.null.with" (fun () -> ());
  Alcotest.(check int) "no spans" 0 (List.length (T.spans ()));
  Alcotest.(check int) "no open spans" 0 (T.open_spans ());
  Alcotest.(check int) "counter untouched" 0 (T.value c);
  List.iter
    (fun (name, v) -> Alcotest.(check int) ("counter " ^ name) 0 v)
    (T.counters ());
  List.iter
    (fun (name, (s : T.hist_snapshot)) ->
      Alcotest.(check int) ("histogram " ^ name) 0 s.T.count)
    (T.histograms ())

let test_enabled_matches_disabled () =
  teardown ();
  let cfg = Loopa.Config.best_pdoall in
  let run () =
    let a = Loopa.Driver.analyze_source src in
    (Loopa.Driver.evaluate a cfg).Loopa.Evaluate.speedup
  in
  let off = run () in
  T.enable ();
  let on = run () in
  teardown ();
  (* same deterministic pipeline either way: recording must not change
     what gets computed *)
  Alcotest.(check (float 0.0)) "speedup identical" off on

(* ---- span recording through the pipeline ---- *)

let test_pipeline_spans_nest () =
  teardown ();
  T.enable ();
  install_tick_clock ();
  ignore (Loopa.Driver.analyze_source src);
  let spans = T.spans () in
  let find name = List.filter (fun (s : T.span) -> s.T.name = name) spans in
  Alcotest.(check int) "no open spans" 0 (T.open_spans ());
  Alcotest.(check bool) "analyze root" true
    (match find "analyze" with [ s ] -> s.T.depth = 0 && s.T.parent = -1 | _ -> false);
  List.iter
    (fun stage ->
      Alcotest.(check bool) (stage ^ " recorded") true (find stage <> []))
    [ "compile"; "parse"; "sema"; "lower"; "prepare"; "classify";
      "scev"; "deptest"; "profile.interp" ];
  (* every non-root starts within its parent on the injected clock *)
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : T.span) -> Hashtbl.replace by_id s.T.id s) spans;
  List.iter
    (fun (s : T.span) ->
      if s.T.parent >= 0 then begin
        let p = Hashtbl.find by_id s.T.parent in
        Alcotest.(check bool) "child inside parent" true
          (p.T.start_s <= s.T.start_s
          && s.T.start_s +. s.T.dur_s <= p.T.start_s +. p.T.dur_s +. 1e-9);
        Alcotest.(check int) "depth is parent+1" (p.T.depth + 1) s.T.depth
      end)
    spans;
  (* the machine's counters were published by the driver *)
  let v name = List.assoc name (T.counters ()) in
  Alcotest.(check int) "one run" 1 (v "interp.runs");
  Alcotest.(check bool) "instructions retired" true (v "interp.instructions" > 0);
  Alcotest.(check bool) "mem accesses seen" true (v "interp.mem.accesses" > 0);
  teardown ()

let test_with_span_closes_on_raise () =
  teardown ();
  T.enable ();
  (match T.with_span "t.raise" (fun () -> raise Exit) with
  | () -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  Alcotest.(check int) "no open spans" 0 (T.open_spans ());
  (match T.spans () with
  | [ s ] ->
      Alcotest.(check string) "name" "t.raise" s.T.name;
      Alcotest.(check (option string)) "outcome attr" (Some "raised")
        (List.assoc_opt "outcome" s.T.attrs)
  | ss -> Alcotest.failf "expected one span, got %d" (List.length ss));
  teardown ()

let test_span_closure_under_faults () =
  let ms = Loopa.Driver.prepare (Frontend.compile_exn src) in
  (* an injected trap: the failure is classified, every span unwinds, and
     the run's machine counters still get published *)
  teardown ();
  T.enable ();
  (match
     Loopa.Driver.profile_result ~faults:[ (50, Interp.Machine.Inject_div_by_zero) ] ms
   with
  | Error f ->
      Alcotest.(check bool) "trap fingerprint" true
        (contains f.Loopa.Driver.fingerprint "trap:")
  | Ok _ -> Alcotest.fail "expected injected trap");
  Alcotest.(check int) "no open spans after trap" 0 (T.open_spans ());
  let v name = List.assoc name (T.counters ()) in
  Alcotest.(check int) "trap counted" 1 (v "interp.traps");
  Alcotest.(check bool) "instructions published on trap path" true
    (v "interp.instructions" > 0);
  (* an injected budget stop: still a success (truncated), spans unwind *)
  teardown ();
  T.enable ();
  (match
     Loopa.Driver.profile_result ~faults:[ (50, Interp.Machine.Inject_fuel_out) ] ms
   with
  | Ok p -> Alcotest.(check bool) "truncated" true p.Loopa.Profile.truncated
  | Error f -> Alcotest.failf "unexpected failure %s" (Loopa.Driver.failure_to_string f));
  Alcotest.(check int) "no open spans after budget stop" 0 (T.open_spans ());
  Alcotest.(check int) "truncation counted" 1 (List.assoc "interp.truncations" (T.counters ()));
  teardown ()

(* A program trap raises out of [analyze_source] (the path `analyze`
   takes) only after the run is counted, as [profile_result] counts it: the
   division by zero fires at clock 103. *)
let trap_src =
  {|
fn main() -> int {
  var s: int = 1;
  var z: int = 7;
  for (var i: int = 0; i < 100; i = i + 1) {
    s = (s * 7 + i) % 1000;
    if (i == 7) { s = s / (i - z); }
  }
  print_int(s);
  return 0;
}
|}

let test_trap_run_counted () =
  teardown ();
  T.enable ();
  (match Loopa.Driver.analyze_source trap_src with
  | _ -> Alcotest.fail "expected a division-by-zero trap"
  | exception Interp.Rvalue.Trap (Interp.Rvalue.Div_by_zero, _) -> ());
  let v name = List.assoc name (T.counters ()) in
  Alcotest.(check int) "runs" 1 (v "interp.runs");
  Alcotest.(check int) "instructions" 103 (v "interp.instructions");
  Alcotest.(check int) "traps" 1 (v "interp.traps");
  teardown ()

(* ---- exporters ---- *)

let test_chrome_trace_shape () =
  teardown ();
  T.enable ();
  install_tick_clock ();
  let outer = T.span_begin "outer" in
  let inner = T.span_begin ~attrs:[ ("k", "v") ] "inner" in
  T.span_end inner;
  T.span_end outer;
  T.incr (T.counter "trace.c");
  let json =
    match Util.Json.of_string (E.chrome_trace_string ()) with
    | Ok j -> j
    | Error e -> Alcotest.failf "trace does not re-parse: %s" e
  in
  let events =
    match Option.bind (Util.Json.member "traceEvents" json) Util.Json.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents list"
  in
  Alcotest.(check int) "two spans + one instant" 3 (List.length events);
  let field ev k = Util.Json.member k ev in
  let str ev k = Option.bind (field ev k) Util.Json.to_str in
  let num ev k = Option.bind (field ev k) Util.Json.to_float in
  let completes, instants =
    List.partition (fun ev -> str ev "ph" = Some "X") events
  in
  Alcotest.(check int) "one instant event" 1 (List.length instants);
  List.iter
    (fun ev ->
      Alcotest.(check bool) "ts present" true (num ev "ts" <> None);
      Alcotest.(check bool) "dur present" true (num ev "dur" <> None);
      Alcotest.(check (option int)) "pid" (Some 1)
        (Option.bind (field ev "pid") Util.Json.to_int))
    completes;
  let get name =
    List.find (fun ev -> str ev "name" = Some name) completes
  in
  let ts ev = Option.get (num ev "ts") and dur ev = Option.get (num ev "dur") in
  let o = get "outer" and i = get "inner" in
  Alcotest.(check bool) "inner nested by time containment" true
    (ts o <= ts i && ts i +. dur i <= ts o +. dur o);
  Alcotest.(check (option string)) "attr exported" (Some "v")
    (Option.bind (field i "args") (fun a -> Option.bind (Util.Json.member "k" a) Util.Json.to_str));
  let instant = List.hd instants in
  Alcotest.(check (option int)) "counter in instant args" (Some 1)
    (Option.bind (field instant "args")
       (fun a -> Option.bind (Util.Json.member "trace.c" a) Util.Json.to_int));
  teardown ()

let test_prometheus_shape () =
  teardown ();
  T.enable ();
  install_tick_clock ();
  let c = T.counter "prom.hits" and h = T.histogram "prom.lat" in
  T.add c 3;
  List.iter (T.observe h) [ 1.0; 2.0; 1000.0 ];
  T.with_span "prom-stage" (fun () -> ());
  let text = E.prometheus () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains text needle))
    [
      "# TYPE loopa_prom_hits_total counter";
      "loopa_prom_hits_total 3";
      "# TYPE loopa_prom_lat histogram";
      "loopa_prom_lat_bucket{le=\"+Inf\"} 3";
      "loopa_prom_lat_sum 1003";
      "loopa_prom_lat_count 3";
      "# TYPE loopa_span_seconds summary";
      (* label values are verbatim (escaped), not sanitized like metric
         names: the dash survives *)
      "loopa_span_seconds_count{span=\"prom-stage\"} 1";
      "# TYPE loopa_build_info gauge";
    ];
  teardown ()

let test_prometheus_label_escaping () =
  teardown ();
  Alcotest.(check string) "backslash, quote, newline escaped"
    "a\\\\b\\\"c\\nd"
    (E.escape_label_value "a\\b\"c\nd");
  T.enable ();
  install_tick_clock ();
  T.with_span "evil\"span\nname\\x" (fun () -> ());
  let text = E.prometheus () in
  Alcotest.(check bool) "escaped span label emitted" true
    (contains text "{span=\"evil\\\"span\\nname\\\\x\"}");
  Alcotest.(check bool) "no raw newline inside a label value" false
    (List.exists
       (fun line -> contains line "{span=\"evil" && not (contains line "} "))
       (String.split_on_char '\n' text));
  teardown ()

let test_prometheus_build_info () =
  teardown ();
  let text = E.prometheus () in
  Alcotest.(check bool) "gauge present even with telemetry off" true
    (contains text "# TYPE loopa_build_info gauge");
  Alcotest.(check bool) "version label" true
    (contains text "loopa_build_info{version=\"");
  Alcotest.(check bool) "git_rev label" true (contains text "git_rev=\"");
  E.set_build_info [ ("version", "9.9.9"); ("git_rev", "de\"ad") ];
  let text = E.prometheus () in
  Alcotest.(check bool) "override + escaping" true
    (contains text "loopa_build_info{version=\"9.9.9\",git_rev=\"de\\\"ad\"} 1");
  E.set_build_info [ ("version", "1.0.0"); ("git_rev", "unknown") ];
  teardown ()

let test_snapshot_rides_checkpoint_line () =
  teardown ();
  T.enable ();
  install_tick_clock ();
  let before = T.mark () in
  T.with_span "task-stage" (fun () -> T.add (T.counter "task.c") 7);
  let spans, counters = T.since before in
  Alcotest.(check int) "one span since mark" 1 (List.length spans);
  Alcotest.(check (list (pair string int))) "one non-zero delta"
    [ ("task.c", 7) ] counters;
  let telemetry = E.snapshot_json ~spans ~counters in
  let r =
    {
      Campaign.Runner.target = "t0";
      status = Campaign.Runner.Completed [];
      attempts = 1;
      clock = 123;
      wall_s = 0.5;
    }
  in
  let line = Campaign.Runner.result_to_json ~telemetry r in
  (* the snapshot is an extra field; older readers must still decode it *)
  let tele =
    match Util.Json.member "telemetry" line with
    | Some t -> t
    | None -> Alcotest.fail "telemetry field missing"
  in
  Alcotest.(check (option int)) "span count in snapshot" (Some 1)
    (Option.bind (Util.Json.member "spans" tele) (fun s ->
         Option.bind (Util.Json.member "task-stage" s) (fun n ->
             Option.bind (Util.Json.member "n" n) Util.Json.to_int)));
  Alcotest.(check (option int)) "counter delta in snapshot" (Some 7)
    (Option.bind (Util.Json.member "counters" tele) (fun c ->
         Option.bind (Util.Json.member "task.c" c) Util.Json.to_int));
  (match Campaign.Runner.result_of_json line with
  | Ok r' ->
      Alcotest.(check string) "target survives" r.Campaign.Runner.target
        r'.Campaign.Runner.target;
      Alcotest.(check int) "clock survives" r.Campaign.Runner.clock
        r'.Campaign.Runner.clock
  | Error e -> Alcotest.failf "decode failed: %s" e);
  teardown ()

let test_heartbeat_line () =
  let hb =
    {
      Campaign.Runner.hb_done = 3;
      hb_total = 10;
      hb_elapsed_s = 2.4;
      hb_tasks_per_s = 1.25;
      hb_eta_s = 5.6;
      hb_counters =
        [ ("interp.instructions", 1234); ("classify.loops", 2); ("interp.runs", 1); ("deptest.unknown", 1) ];
      hb_timeouts = 0;
    }
  in
  let line = Campaign.Runner.heartbeat_line hb in
  Alcotest.(check bool) "progress fraction" true (contains line "[3/10]");
  Alcotest.(check bool) "rate" true (contains line "1.25 tasks/s");
  Alcotest.(check bool) "largest delta shown" true
    (contains line "interp.instructions +1234");
  (* only the three largest movements ride along *)
  Alcotest.(check bool) "fourth delta dropped" false (contains line "deptest.unknown");
  (* supervision stays out of the line while nothing went wrong *)
  Alcotest.(check bool) "quiet supervision omitted" false (contains line "timeouts");
  let line2 =
    Campaign.Runner.heartbeat_line { hb with Campaign.Runner.hb_timeouts = 2 }
  in
  Alcotest.(check bool) "timeouts surface" true (contains line2 "timeouts 2")

(* ---- absorption: merging forked-worker telemetry ---- *)

let test_absorb_reidentifies_spans () =
  teardown ();
  T.enable ();
  install_tick_clock ();
  (* a local span first, so absorbed ids must shift past it *)
  T.with_span "parent.local" (fun () -> ());
  let worker_spans =
    [
      {
        T.id = 5;
        parent = -1;
        depth = 0;
        name = "w.root";
        start_s = 0.1;
        dur_s = 0.2;
        attrs = [];
      };
      {
        T.id = 6;
        parent = 5;
        depth = 1;
        name = "w.child";
        start_s = 0.15;
        dur_s = 0.05;
        attrs = [ ("k", "v") ];
      };
      {
        T.id = 7;
        parent = 3;
        (* its parent was not shipped: must become a root *)
        depth = 1;
        name = "w.orphan";
        start_s = 0.3;
        dur_s = 0.01;
        attrs = [];
      };
    ]
  in
  T.absorb ~spans:worker_spans ~counters:[ ("w.ctr", 4); ("w.zero", 0) ];
  let spans = T.spans () in
  Alcotest.(check int) "local + three absorbed" 4 (List.length spans);
  let ids = List.map (fun (s : T.span) -> s.T.id) spans in
  Alcotest.(check bool) "ids unique" true
    (List.length (List.sort_uniq compare ids) = List.length ids);
  let find name = List.find (fun (s : T.span) -> s.T.name = name) spans in
  let root = find "w.root" and child = find "w.child" and orphan = find "w.orphan" in
  Alcotest.(check int) "in-batch parent link preserved" root.T.id child.T.parent;
  Alcotest.(check int) "out-of-batch parent cut to root" (-1) orphan.T.parent;
  Alcotest.(check (option string)) "attrs survive" (Some "v")
    (List.assoc_opt "k" child.T.attrs);
  Alcotest.(check int) "counter delta added" 4 (T.value (T.counter "w.ctr"));
  (* a span recorded after absorption must not collide with absorbed ids *)
  T.with_span "parent.after" (fun () -> ());
  let ids' = List.map (fun (s : T.span) -> s.T.id) (T.spans ()) in
  Alcotest.(check bool) "still unique after more recording" true
    (List.length (List.sort_uniq compare ids') = List.length ids');
  teardown ()

let test_absorb_disabled_is_noop () =
  teardown ();
  T.absorb
    ~spans:
      [
        {
          T.id = 0;
          parent = -1;
          depth = 0;
          name = "w";
          start_s = 0.0;
          dur_s = 1.0;
          attrs = [];
        };
      ]
    ~counters:[ ("w.ctr", 9) ];
  Alcotest.(check int) "no spans" 0 (List.length (T.spans ()));
  Alcotest.(check int) "counter untouched" 0 (T.value (T.counter "w.ctr"))

let test_histogram_wire_merge () =
  teardown ();
  T.enable ();
  (* "worker": observe, snapshot the wire payload, then start over as the
     "parent" with different observations and merge the worker's in *)
  let h = T.histogram "t.merge" in
  T.observe h 2.0;
  T.observe h 8.0;
  let wire = T.wire_histograms () in
  T.reset ();
  T.observe h 1.0;
  T.absorb_histograms wire;
  (match List.assoc_opt "t.merge" (T.histograms ()) with
  | Some s ->
      Alcotest.(check int) "counts add" 3 s.T.count;
      Alcotest.(check (float 1e-9)) "sums add" 11.0 s.T.sum;
      Alcotest.(check (float 1e-9)) "min widens" 1.0 s.T.minimum;
      Alcotest.(check (float 1e-9)) "max widens" 8.0 s.T.maximum;
      (* cumulative buckets: everything <= 8 *)
      Alcotest.(check bool) "buckets add" true
        (List.exists (fun (le, c) -> le = 8.0 && c = 3) s.T.buckets)
  | None -> Alcotest.fail "histogram vanished");
  (* exporters must render the merged registry without raising *)
  let prom = E.prometheus () in
  Alcotest.(check bool) "merged histogram exported" true
    (contains prom "t_merge");
  teardown ()

let () =
  Alcotest.run "obs"
    [
      ( "disabled",
        [
          Alcotest.test_case "null sink records nothing" `Quick
            test_null_sink_records_nothing;
          Alcotest.test_case "results identical on/off" `Quick
            test_enabled_matches_disabled;
        ] );
      ( "spans",
        [
          Alcotest.test_case "pipeline spans nest" `Quick test_pipeline_spans_nest;
          Alcotest.test_case "with_span closes on raise" `Quick
            test_with_span_closes_on_raise;
          Alcotest.test_case "closure under injected faults" `Quick
            test_span_closure_under_faults;
          Alcotest.test_case "a trapped analyze run is counted" `Quick
            test_trap_run_counted;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
          Alcotest.test_case "prometheus shape" `Quick test_prometheus_shape;
          Alcotest.test_case "prometheus label escaping" `Quick
            test_prometheus_label_escaping;
          Alcotest.test_case "prometheus build info" `Quick
            test_prometheus_build_info;
          Alcotest.test_case "snapshot in checkpoint line" `Quick
            test_snapshot_rides_checkpoint_line;
          Alcotest.test_case "heartbeat line" `Quick test_heartbeat_line;
        ] );
      ( "absorb",
        [
          Alcotest.test_case "spans re-identified" `Quick
            test_absorb_reidentifies_spans;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_absorb_disabled_is_noop;
          Alcotest.test_case "histogram wire merge" `Quick
            test_histogram_wire_merge;
        ] );
    ]
