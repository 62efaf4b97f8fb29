(* Guarded parallel DOALL execution: conflict-detector edge cases, the
   byte-identity guarantee of the commit/rollback protocol at two and
   three shards, quarantine of unsound verdicts (hand-forged Proven_doall
   on a dependent loop), and convergence under injected shard faults. The
   mark scan and the interval algebra are unit tested here; the
   end-to-end invariants run real programs through Parrun.Guard. *)

module Conflict = Parrun.Conflict
module Quarantine = Parrun.Quarantine
module Runner = Parrun.Runner
module Guard = Parrun.Guard
module Machine = Interp.Machine

let contains = Astring_contains.contains

(* ---- conflict detector unit tests ---- *)

(* A mark array of [len] words with [bit] set at each of [addrs]. *)
let marks_with len bit addrs =
  let m = Bytes.make len '\000' in
  List.iter
    (fun a -> Bytes.set m a (Char.chr (Char.code (Bytes.get m a) lor bit)))
    addrs;
  m

let test_of_marks () =
  let m = marks_with 10 1 [ 1; 2; 3; 7 ] in
  let runs = Conflict.of_marks m ~bit:1 in
  Alcotest.(check (list (pair int int))) "runs coalesce" [ (1, 4); (7, 8) ] runs;
  Alcotest.(check int) "words covered" 4
    (List.fold_left (fun n (lo, hi) -> n + hi - lo) 0 runs);
  Alcotest.(check (list (pair int int)))
    "other bits ignored" []
    (Conflict.of_marks m ~bit:2);
  Alcotest.(check (list (pair int int)))
    "first and last words"
    [ (0, 1); (9, 10) ]
    (Conflict.of_marks (marks_with 10 2 [ 0; 9 ]) ~bit:2)

(* Each bit's scan equals the coalesced runs of the addresses carrying it,
   on marks that mix both bits (a word read before it is written carries
   both). Random runs of one mark value reach the first and last words. *)
let prop_of_marks_coalesces =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 40) (pair (int_range 0 3) (int_range 1 6))
      >|= fun runs ->
      Bytes.of_string
        (String.concat ""
           (List.map (fun (v, n) -> String.make n (Char.chr v)) runs)))
  in
  let coalesce addrs =
    List.fold_right
      (fun a acc ->
        match acc with
        | (lo, hi) :: rest when lo = a + 1 -> (a, hi) :: rest
        | _ -> (a, a + 1) :: acc)
      addrs []
  in
  QCheck.Test.make ~name:"mark scan = coalesced addresses" ~count:300
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) gen)
    (fun marks ->
      List.for_all
        (fun bit ->
          let addrs =
            List.filter
              (fun a -> Char.code (Bytes.get marks a) land bit <> 0)
              (List.init (Bytes.length marks) Fun.id)
          in
          Conflict.of_marks marks ~bit = coalesce addrs)
        [ 1; 2 ])

let test_overlap_adjacent_disjoint () =
  (* shard boundaries touch: [0,100) vs [100,200) share no word *)
  Alcotest.(check (option int))
    "adjacent half-open ranges are disjoint" None
    (Conflict.overlap [ (0, 100) ] [ (100, 200) ]);
  Alcotest.(check (option int))
    "one-word gap" None
    (Conflict.overlap [ (0, 10) ] [ (11, 20) ]);
  Alcotest.(check (option int))
    "first common word" (Some 104)
    (Conflict.overlap [ (0, 10); (100, 108) ] [ (104, 112) ])

let test_detect_write_write () =
  (* two "bases" that alias the same storage: the write sets overlap even
     though each shard derived them from a different pointer. With no
     exposed read between them this is an output dependence only: the
     commit applies shard 1's writes after shard 0's, as serial order
     leaves them, so it must not conflict *)
  let writes = [| [ (100, 108) ]; [ (104, 112) ] |] in
  let reads = [| []; [] |] in
  match Conflict.detect ~writes ~reads ~n:2 with
  | None -> ()
  | Some c ->
      Alcotest.failf "overlapping writes alone must not conflict, got %s"
        (Conflict.conflict_to_string c)

let test_detect_read_write_directional () =
  (* later shard reads what an earlier shard wrote: its fork snapshot
     returned bytes serial execution would have overwritten — conflict *)
  (match
     Conflict.detect
       ~writes:[| [ (0, 4) ]; [] |]
       ~reads:[| []; [ (2, 3) ] |]
       ~n:2
   with
  | Some { Conflict.addr = 2; writer = 0; reader = 1 } -> ()
  | _ -> Alcotest.fail "flow (early-write/late-read) not detected");
  (* earlier shard reads what a later shard writes: anti-dependence — the
     snapshot gives the reader the pre-loop bytes, exactly what serial
     iteration order reads, so this must commit (forward-gather loops are
     genuinely DOALL) *)
  match
    Conflict.detect
      ~writes:[| []; [ (0, 4) ] |]
      ~reads:[| [ (2, 3) ]; [] |]
      ~n:2
  with
  | None -> ()
  | Some c ->
      Alcotest.failf "anti-dependence must not conflict, got %s"
        (Conflict.conflict_to_string c)

let test_detect_disjoint_commits () =
  let writes = [| [ (0, 50) ]; [ (50, 100) ]; [ (100, 150) ] |] in
  let reads = [| [ (200, 210) ]; [ (210, 220) ]; [ (220, 230) ] |] in
  Alcotest.(check bool)
    "disjoint shards do not conflict" true
    (Conflict.detect ~writes ~reads ~n:3 = None)

(* ---- quarantine persistence ---- *)

let test_quarantine_roundtrip () =
  let q = Quarantine.create () in
  let e =
    {
      Quarantine.fingerprint = "parrun:conflict@main:bb3:deadbeef";
      target = "t";
      fname = "main";
      lid = 0;
      header = 3;
      reason = "write/write at 42";
    }
  in
  Alcotest.(check bool) "first add" true (Quarantine.add q e);
  Alcotest.(check bool) "dup add" false (Quarantine.add q e);
  let path = Filename.temp_file "parrun-quarantine-" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Quarantine.save q path;
      let q' = Quarantine.load path in
      Alcotest.(check int) "size survives" 1 (Quarantine.size q');
      Alcotest.(check bool) "mem survives" true
        (Quarantine.mem q' e.Quarantine.fingerprint))

(* ---- end-to-end guarded runs ---- *)

(* A map loop (adjacent-but-disjoint writes across every shard boundary)
   feeding a sum reduction: both are genuine DOALL and must commit. *)
let map_reduce_src =
  {|
fn main() -> int {
  var a: int[] = new int[400];
  for (var i: int = 0; i < 400; i = i + 1) { a[i] = i * 3 + 1; }
  var s: int = 0;
  for (var i: int = 0; i < 400; i = i + 1) { s = s + a[i]; }
  print_int(s);
  return 0;
}
|}

let aggressive ?chaos ?(shards = 2) () =
  {
    Runner.default_knobs with
    Runner.jobs = shards;
    min_trip = 1;
    round_chunk = 8;
    chaos;
  }

let run_guard ?chaos ?shards ?quarantine ?repro_dir ~target src =
  match
    Guard.run ~knobs:(aggressive ?chaos ?shards ()) ?quarantine ?repro_dir
      ~predict:false ~target src
  with
  | Error f -> Alcotest.fail ("guard failed: " ^ f.Loopa.Driver.message)
  | Ok r -> r

let total f rows = List.fold_left (fun acc st -> acc + f st) 0 rows

let test_map_reduce_commits ~shards () =
  let r = run_guard ~shards ~target:"map_reduce" map_reduce_src in
  Alcotest.(check bool) "byte-identical" true r.Guard.identical;
  Alcotest.(check (list string)) "no diffs" [] r.Guard.diffs;
  let stats = Runner.loop_stats r.Guard.runner in
  Alcotest.(check int) "two eligible loops" 2 (List.length stats);
  let committed = total (fun st -> st.Runner.st_committed) stats in
  Alcotest.(check bool) "commits happened" true (committed >= 2);
  Alcotest.(check int) "no conflicts" 0
    (total (fun st -> st.Runner.st_conflicts) stats);
  Alcotest.(check int) "nothing quarantined" 0
    (Quarantine.size (Runner.quarantine r.Guard.runner));
  (* parallel output really is the serial output *)
  (match r.Guard.serial with
  | Guard.Finished o -> Alcotest.(check bool) "printed sum" true
      (contains o.Machine.output "239800")
  | Guard.Trapped _ -> Alcotest.fail "serial pass trapped")

(* Reduction with a multiplicative accumulator and an unknown trip (the
   bound comes through a call-opaque chain? no — keep it simple: bottom
   bound known, but iterate by while). While-shaped loops still have a
   header compare; what matters here is the reduction commits. *)
let reduction_src =
  {|
fn main() -> int {
  var a: int[] = new int[256];
  for (var i: int = 0; i < 256; i = i + 1) { a[i] = (i % 7) + 1; }
  var m: int = 0;
  for (var i: int = 0; i < 256; i = i + 1) {
    if (a[i] * i > m) { m = a[i] * i; }
  }
  var s: int = 0;
  for (var i: int = 0; i < 256; i = i + 1) { s = s + a[i] * a[i]; }
  print_int(m); print_int(s);
  return 0;
}
|}

let test_reduction_commits_not_conflicts () =
  let r = run_guard ~target:"reductions" reduction_src in
  Alcotest.(check bool) "byte-identical" true r.Guard.identical;
  let stats = Runner.loop_stats r.Guard.runner in
  Alcotest.(check int) "no conflicts" 0
    (total (fun st -> st.Runner.st_conflicts) stats);
  let committed = total (fun st -> st.Runner.st_committed) stats in
  Alcotest.(check bool) "sum reduction committed" true (committed >= 1)

(* Forward gather: iteration i reads a[i + 8], which a later iteration
   writes. A pure anti-dependence — the fork snapshot hands every shard
   the same pre-loop bytes serial iteration order reads, so the loop is
   genuinely DOALL and must commit, not conflict (the shard boundary
   always splits some (i, i+8) pair, so an over-eager detector that
   flagged early-read/late-write overlaps would quarantine this). *)
let gather_src =
  {|
fn main() -> int {
  var a: int[] = new int[136];
  for (var i: int = 0; i < 136; i = i + 1) { a[i] = i * 5 + 3; }
  for (var i: int = 0; i < 128; i = i + 1) { a[i] = a[i] + a[i + 8]; }
  var s: int = 0;
  for (var i: int = 0; i < 128; i = i + 1) { s = s + a[i]; }
  print_int(s);
  return 0;
}
|}

let test_forward_gather_commits () =
  let r = run_guard ~target:"gather" gather_src in
  Alcotest.(check bool) "byte-identical" true r.Guard.identical;
  Alcotest.(check (list string)) "no diffs" [] r.Guard.diffs;
  let stats = Runner.loop_stats r.Guard.runner in
  let gather =
    List.filter
      (fun st -> st.Runner.st_sharded > 0 && st.Runner.st_committed > 0)
      stats
  in
  Alcotest.(check bool) "gather loop committed in shards" true
    (List.length gather >= 2);
  Alcotest.(check int) "anti-dependence is not a conflict" 0
    (total (fun st -> st.Runner.st_conflicts) stats);
  Alcotest.(check int) "nothing quarantined" 0
    (Quarantine.size (Runner.quarantine r.Guard.runner))

(* Two iterations write the same word: b[0] = 3 at i = 3 (round 1), then
   b[0] = [late] at i = [late]. A write/write pair is not a RAW, so deptest
   proves the loop DOALL; the trip is unknown, so it shards in geometric
   rounds. Only committing the writes in iteration order leaves the later
   one in place, as serial execution does. *)
let cross_round_src late =
  Printf.sprintf
    {|
fn main() -> int {
  var stop: int[] = new int[200];
  stop[150] = 1;
  var b: int[] = new int[4];
  var c: int[] = new int[200];
  var i: int = 0;
  while (stop[i] == 0) {
    c[i] = i + 1;
    if (i == 3) { b[0] = 3; }
    if (i == %d) { b[0] = %d; }
    i = i + 1;
  }
  print_int(b[0]);
  print_int(c[149]);
  return 0;
}
|}
    late late

(* Either placement commits once, without a rollback, and prints what
   serial execution prints. *)
let run_write_order ~shards ~late =
  let r = run_guard ~shards ~target:"cross_round" (cross_round_src late) in
  Alcotest.(check bool) "byte-identical" true r.Guard.identical;
  let stats = Runner.loop_stats r.Guard.runner in
  Alcotest.(check int) "one commit" 1
    (total (fun st -> st.Runner.st_committed) stats);
  Alcotest.(check int) "no rollbacks" 0
    (total (fun st -> st.Runner.st_rollbacks) stats);
  (match (r.Guard.serial, r.Guard.parallel) with
  | Guard.Finished s, Guard.Finished p ->
      Alcotest.(check string) "serial output" (Printf.sprintf "%d\n150\n" late)
        s.Machine.output;
      Alcotest.(check string) "the later write wins" s.Machine.output
        p.Machine.output
  | _ -> Alcotest.fail "a pass trapped");
  (r, stats)

(* At i = 100 the second write lands in a later round than the first: in
   round 3, the exit shard, at 2 shards; in round 2's last shard at 3. The
   rounds must commit oldest first. *)
let test_cross_round_commit_order ~shards () =
  let _, stats = run_write_order ~shards ~late:100 in
  Alcotest.(check bool) "sharded over several rounds" true
    (total (fun st -> st.Runner.st_rounds) stats >= 2)

(* At i = 12 both writes land in round 1, in shards 0 and 1. Their write
   sets overlap with no exposed read between them: an output dependence
   the in-order commit resolves, not a conflict to roll back. At 3 shards
   the check also pairs shard 1's writes with shard 2's exposed reads,
   besides shard 0's writes with shard 1's. *)
let test_same_round_write_write_commits ~shards () =
  let r, stats = run_write_order ~shards ~late:12 in
  Alcotest.(check int) "no conflicts" 0
    (total (fun st -> st.Runner.st_conflicts) stats);
  Alcotest.(check int) "nothing quarantined" 0
    (Quarantine.size (Runner.quarantine r.Guard.runner))

(* ---- hand-forged unsound verdict must be caught at runtime ---- *)

(* a[i+1] depends on a[i]: honest analysis proves the carried dependence;
   we overwrite the verdict with Proven_doall and let the guarded runtime
   discover the lie, roll back, quarantine, and stay byte-identical. *)
let dependent_src =
  {|
fn main() -> int {
  var a: int[] = new int[128];
  a[0] = 1;
  for (var i: int = 0; i < 127; i = i + 1) { a[i + 1] = a[i] + 1; }
  print_int(a[127]);
  return 0;
}
|}

let force_doall (ms : Loopa.Classify.module_static) =
  let forced = ref 0 in
  Hashtbl.iter
    (fun _ (fs : Loopa.Classify.func_static) ->
      Array.iteri
        (fun i (ls : Loopa.Classify.loop_static) ->
          if ls.Loopa.Classify.dep.Deptest.Analysis.verdict
             <> Deptest.Analysis.Proven_doall
          then begin
            incr forced;
            fs.Loopa.Classify.loops.(i) <-
              {
                ls with
                Loopa.Classify.dep =
                  {
                    ls.Loopa.Classify.dep with
                    Deptest.Analysis.verdict = Deptest.Analysis.Proven_doall;
                  };
              }
          end)
        fs.Loopa.Classify.loops)
    ms.Loopa.Classify.funcs;
  !forced

let compile_prepared src =
  match Frontend.compile src with
  | Error _ -> Alcotest.fail "compile failed"
  | Ok m -> Loopa.Driver.prepare ~optimize:false m

let test_forced_unsound_verdict_quarantines () =
  let ms = compile_prepared dependent_src in
  Alcotest.(check bool) "a dependent loop exists" true (force_doall ms > 0);
  let dir = Filename.temp_file "parrun-bundles-" "" in
  Sys.remove dir;
  let runner =
    Runner.create ~knobs:(aggressive ()) ~repro_dir:dir
      ~target:"forced_unsound" ~source:dependent_src ms
  in
  let serial = Machine.run_main (Machine.create ms.Loopa.Classify.modul) in
  let pm = Machine.create ms.Loopa.Classify.modul in
  Runner.install runner pm;
  let parallel = Machine.run_main pm in
  (* rollback made the lie invisible *)
  Alcotest.(check string) "output identical" serial.Machine.output
    parallel.Machine.output;
  Alcotest.(check int) "clock identical" serial.Machine.clock
    parallel.Machine.clock;
  Alcotest.(check bool) "printed chain tip" true
    (contains serial.Machine.output "128");
  (* ... but was detected, quarantined, and documented *)
  let conflicts = Runner.conflicts runner in
  Alcotest.(check bool) "conflict detected" true (conflicts <> []);
  let c = List.hd conflicts in
  Alcotest.(check bool) "fingerprint shape" true
    (contains c.Runner.cf_fingerprint "parrun:conflict@main:bb");
  Alcotest.(check int) "verdict quarantined" 1
    (Quarantine.size (Runner.quarantine runner));
  (match c.Runner.cf_bundle with
  | None -> Alcotest.fail "no repro bundle emitted"
  | Some path ->
      Alcotest.(check bool) "bundle exists" true (Sys.file_exists path);
      (match Repro.Bundle.load path with
      | Error e -> Alcotest.fail ("bundle unreadable: " ^ e)
      | Ok b ->
          Alcotest.(check string) "bundle fingerprint" c.Runner.cf_fingerprint
            b.Repro.Bundle.fingerprint;
          Alcotest.(check string) "bundle source" dependent_src
            b.Repro.Bundle.source));
  (* a second run under the loaded quarantine must not shard the loop *)
  let q = Runner.quarantine runner in
  let runner2 =
    Runner.create ~knobs:(aggressive ()) ~quarantine:q
      ~target:"forced_unsound" ~source:dependent_src ms
  in
  let pm2 = Machine.create ms.Loopa.Classify.modul in
  Runner.install runner2 pm2;
  let again = Machine.run_main pm2 in
  Alcotest.(check string) "quarantined run identical" serial.Machine.output
    again.Machine.output;
  Alcotest.(check bool) "no new conflicts" true (Runner.conflicts runner2 = [])

(* ---- shard-fault chaos: every fault converges to the serial answer ---- *)

let test_shard_faults_converge () =
  let chaos =
    Exec.Chaos.shard_explicit
      [
        ((0, 0), Exec.Chaos.Kill_self);
        ((1, 1), Exec.Chaos.Corrupt_result);
        ((2, 0), Exec.Chaos.Torn_result);
      ]
  in
  let r = run_guard ~chaos ~target:"chaos_shards" map_reduce_src in
  Alcotest.(check bool) "byte-identical under faults" true r.Guard.identical;
  let stats = Runner.loop_stats r.Guard.runner in
  Alcotest.(check bool) "faults observed" true
    (total (fun st -> st.Runner.st_shard_failures) stats > 0);
  Alcotest.(check bool) "rollbacks happened" true
    (total (fun st -> st.Runner.st_rollbacks) stats > 0);
  (* infrastructure faults indict the pool, not the verdict *)
  Alcotest.(check int) "no conflicts" 0
    (total (fun st -> st.Runner.st_conflicts) stats);
  Alcotest.(check int) "nothing quarantined" 0
    (Quarantine.size (Runner.quarantine r.Guard.runner))

let () =
  Alcotest.run "parrun"
    [
      ( "conflict",
        [
          Alcotest.test_case "mark scan to ranges" `Quick test_of_marks;
          QCheck_alcotest.to_alcotest prop_of_marks_coalesces;
          Alcotest.test_case "adjacent-disjoint no overlap" `Quick
            test_overlap_adjacent_disjoint;
          Alcotest.test_case "aliased bases write/write" `Quick
            test_detect_write_write;
          Alcotest.test_case "read/write flow vs anti" `Quick
            test_detect_read_write_directional;
          Alcotest.test_case "disjoint shards commit" `Quick
            test_detect_disjoint_commits;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "save/load roundtrip, dup-free" `Quick
            test_quarantine_roundtrip;
        ] );
      ( "guarded",
        [
          Alcotest.test_case "map+reduce commits, byte-identical" `Quick
            (test_map_reduce_commits ~shards:2);
          Alcotest.test_case "3 shards: map+reduce commits" `Quick
            (test_map_reduce_commits ~shards:3);
          Alcotest.test_case "reductions commit, no conflicts" `Quick
            test_reduction_commits_not_conflicts;
          Alcotest.test_case "forward gather (anti-dep) commits" `Quick
            test_forward_gather_commits;
          Alcotest.test_case "cross-round writes commit in round order"
            `Quick
            (test_cross_round_commit_order ~shards:2);
          Alcotest.test_case "3 shards: cross-round round order" `Quick
            (test_cross_round_commit_order ~shards:3);
          Alcotest.test_case "same-round writes commit in shard order"
            `Quick
            (test_same_round_write_write_commits ~shards:2);
          Alcotest.test_case "3 shards: same-round shard order" `Quick
            (test_same_round_write_write_commits ~shards:3);
          Alcotest.test_case "forced unsound verdict quarantined" `Quick
            test_forced_unsound_verdict_quarantines;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "shard faults converge to serial" `Quick
            test_shard_faults_converge;
        ] );
    ]
