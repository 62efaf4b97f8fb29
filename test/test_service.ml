(* The result cache: content-addressed cache semantics (hit/miss/evict,
   knob-fingerprint sensitivity, corruption tolerance, atomic concurrent
   writers), a campaign run cold and then warm through the runner's cache
   hooks, and the summary renderer's notes. *)

module J = Util.Json
module Cache = Service.Cache
module Keys = Service.Keys
module Runner = Campaign.Runner

let contains = Astring_contains.contains
let quiet _ = ()

let good_src =
  {|
fn main() -> int {
  var a: int[] = new int[64];
  for (var i: int = 0; i < 64; i = i + 1) { a[i] = i * 3; }
  var s: int = 0;
  for (var i: int = 0; i < 64; i = i + 1) { s = s + a[i]; }
  print_int(s);
  return 0;
}
|}

let other_src =
  {|
fn main() -> int {
  var s: int = 0;
  for (var i: int = 0; i < 32; i = i + 1) { s = s + i; }
  print_int(s);
  return 0;
}
|}

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "svc-test-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> try rm dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* ---- cache semantics ---- *)

let test_cache_hit_miss () =
  with_tmp_dir (fun dir ->
      let c = Cache.open_dir dir in
      let k = Cache.key ~source:good_src ~fingerprint:"fp|v1" in
      Alcotest.(check (option reject)) "cold miss" None (Cache.find c k);
      Cache.store c k (J.String "payload");
      (match Cache.find c k with
      | Some (J.String "payload") -> ()
      | _ -> Alcotest.fail "expected stored payload back");
      let hits, misses, _ = Cache.stats c in
      Alcotest.(check int) "one hit" 1 hits;
      Alcotest.(check int) "one miss" 1 misses;
      (* a second handle on the same directory sees the entry *)
      let c2 = Cache.open_dir dir in
      match Cache.find c2 k with
      | Some (J.String "payload") -> ()
      | _ -> Alcotest.fail "expected hit through a fresh handle")

let test_cache_fingerprint_sensitivity () =
  let fp1 = Keys.analyze ~config:"reduc1-dep1-fn2 HELIX" ~fuel:1000 ~loops:8 ~optimize:false in
  let fp2 = Keys.analyze ~config:"reduc1-dep1-fn2 HELIX" ~fuel:2000 ~loops:8 ~optimize:false in
  let fp3 = Keys.analyze ~config:"reduc1-dep1-fn2 HELIX" ~fuel:1000 ~loops:8 ~optimize:true in
  let k source fp = Cache.key ~source ~fingerprint:fp in
  Alcotest.(check bool) "fuel changes key" true (k good_src fp1 <> k good_src fp2);
  Alcotest.(check bool) "optimize changes key" true (k good_src fp1 <> k good_src fp3);
  Alcotest.(check bool) "source changes key" true (k good_src fp1 <> k other_src fp1);
  (* the code revision is part of the key *)
  Unix.putenv "LOOPA_GIT_REV" "rev-a";
  let ka = k good_src fp1 in
  Unix.putenv "LOOPA_GIT_REV" "rev-b";
  let kb = k good_src fp1 in
  Unix.putenv "LOOPA_GIT_REV" "";
  Alcotest.(check bool) "revision changes key" true (ka <> kb);
  with_tmp_dir (fun dir ->
      let c = Cache.open_dir dir in
      Cache.store c (k good_src fp1) (J.String "v1");
      Alcotest.(check (option reject))
        "different knobs miss" None
        (Cache.find c (k good_src fp2)))

let test_cache_eviction () =
  with_tmp_dir (fun dir ->
      (* entries are a few hundred bytes; a 1 KiB cap forces eviction *)
      let c = Cache.open_dir ~max_bytes:1024 dir in
      let pad = String.make 400 'x' in
      let key i = Cache.key ~source:(string_of_int i) ~fingerprint:"evict" in
      Cache.store c (key 1) (J.String pad);
      Cache.store c (key 2) (J.String pad);
      Cache.store c (key 3) (J.String pad);
      let _, _, evictions = Cache.stats c in
      Alcotest.(check bool) "evicted something" true (evictions > 0);
      Alcotest.(check bool) "under the cap" true (Cache.size_bytes c <= 1024);
      (* the just-written entry survives its own eviction pass *)
      (match Cache.find c (key 3) with
      | Some (J.String _) -> ()
      | _ -> Alcotest.fail "newest entry must survive");
      (* the LRU victim is gone *)
      Alcotest.(check (option reject)) "oldest evicted" None (Cache.find c (key 1)))

let test_cache_corrupt_entry_is_a_miss () =
  with_tmp_dir (fun dir ->
      let c = Cache.open_dir dir in
      let k = Cache.key ~source:good_src ~fingerprint:"corrupt" in
      Cache.store c k (J.String "good");
      (* smash the entry on disk *)
      let path = Filename.concat dir (k ^ ".json") in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "{ not json");
      let c2 = Cache.open_dir dir in
      Alcotest.(check (option reject)) "corrupt is a miss" None (Cache.find c2 k);
      Alcotest.(check bool) "poisoned file dropped" false (Sys.file_exists path);
      (* an entry that parses but identifies as another key is foreign *)
      let k2 = Cache.key ~source:other_src ~fingerprint:"corrupt" in
      let path2 = Filename.concat dir (k2 ^ ".json") in
      Out_channel.with_open_text path2 (fun oc ->
          Out_channel.output_string oc
            (J.to_string
               (J.Obj [ ("key", J.String "0000000000000000"); ("value", J.Null) ])));
      let c3 = Cache.open_dir dir in
      Alcotest.(check (option reject)) "foreign is a miss" None (Cache.find c3 k2))

let test_cache_concurrent_writers () =
  with_tmp_dir (fun dir ->
      let k = Cache.key ~source:good_src ~fingerprint:"race" in
      let big tag = J.String (tag ^ String.make 65536 (String.get tag 0)) in
      let writer tag =
        match Unix.fork () with
        | 0 ->
            (try
               let c = Cache.open_dir dir in
               for _ = 1 to 20 do
                 Cache.store c k (big tag)
               done
             with _ -> Unix._exit 1);
            Unix._exit 0
        | pid -> pid
      in
      let a = writer "a" and b = writer "b" in
      let reap pid =
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> Alcotest.fail "writer child failed"
      in
      reap a;
      reap b;
      (* whatever rename won, the entry is whole: one of the two values,
         never an interleaving *)
      let c = Cache.open_dir dir in
      match Cache.find c k with
      | Some (J.String s) ->
          Alcotest.(check bool) "intact value" true
            (s = "a" ^ String.make 65536 'a' || s = "b" ^ String.make 65536 'b')
      | _ -> Alcotest.fail "expected an intact entry after the race")

(* ---- campaign through the cache hooks ---- *)

let normalized_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         match J.of_string line with
         | Ok (J.Obj fields) ->
             J.to_string
               (J.Obj
                  (List.filter
                     (fun (k, _) -> k <> "wall_s" && k <> "telemetry")
                     fields))
         | _ -> line)

(* The same hooks `campaign --cache` builds: a cold run stores every
   result, a warm run is served entirely from the cache and checkpoints
   the same lines. *)
let test_campaign_cold_warm () =
  with_tmp_dir (fun dir ->
      let named = [ ("good", good_src); ("other", other_src) ] in
      let budgets = { Runner.default_budgets with Runner.fuel = 1_000_000 } in
      let cache = Cache.open_dir (Filename.concat dir "cache") in
      let fingerprint =
        Keys.campaign ~budgets ~configs:Loopa.Config.figure_ladder
      in
      let key_of t = Cache.key ~source:(List.assoc t named) ~fingerprint in
      let cache_find t =
        Option.bind (Cache.find cache (key_of t)) (fun v ->
            match Runner.result_of_json v with
            | Ok r -> Some { r with Runner.target = t }
            | Error _ -> None)
      in
      let cache_store t r =
        Cache.store cache (key_of t) (Runner.result_to_json r)
      in
      let pass name =
        let checkpoint = Filename.concat dir name in
        let s =
          Runner.run ~budgets ~checkpoint ~log:quiet ~cache_find ~cache_store
            named
        in
        (s, normalized_lines checkpoint)
      in
      let cold, cold_lines = pass "cold.ckpt" in
      let warm, warm_lines = pass "warm.ckpt" in
      Alcotest.(check int) "cold: nothing cached" 0 cold.Runner.n_cached;
      Alcotest.(check int) "warm: every target cached" 2 warm.Runner.n_cached;
      let hits, misses, _ = Cache.stats cache in
      Alcotest.(check (pair int int)) "hits, misses" (2, 2) (hits, misses);
      Alcotest.(check (list string))
        "normalized checkpoints identical" cold_lines warm_lines)

(* ---- renderer ---- *)

let test_render_campaign_summary_notes () =
  let mk n_resumed n_cached =
    {
      Runner.results = [];
      n_completed = 0;
      n_truncated = 0;
      n_errored = 0;
      n_resumed;
      n_cached;
      n_degraded = 0;
      geomeans = [];
      failures = [];
    }
  in
  let s = Service.Render.campaign_summary (mk 0 0) in
  Alcotest.(check bool) "no notes" false (contains s "(");
  let s = Service.Render.campaign_summary (mk 2 0) in
  Alcotest.(check bool) "resumed note" true (contains s "(2 resumed from checkpoint)");
  let s = Service.Render.campaign_summary (mk 1 3) in
  Alcotest.(check bool) "both notes" true
    (contains s "(1 resumed from checkpoint; 3 served from cache)")

let () =
  Alcotest.run "service"
    [
      ( "cache",
        [
          Alcotest.test_case "hit / miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "fingerprint sensitivity" `Quick
            test_cache_fingerprint_sensitivity;
          Alcotest.test_case "LRU eviction" `Quick test_cache_eviction;
          Alcotest.test_case "corrupt entry is a miss" `Quick
            test_cache_corrupt_entry_is_a_miss;
          Alcotest.test_case "concurrent writers" `Quick
            test_cache_concurrent_writers;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "cold, then warm from the cache" `Quick
            test_campaign_cold_warm;
        ] );
      ( "render",
        [
          Alcotest.test_case "summary notes" `Quick
            test_render_campaign_summary_notes;
        ] );
    ]
