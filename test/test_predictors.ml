(* Value predictors (paper §III-C): each component of the bank on
   characteristic streams, the 2-delta hysteresis, FCM periodic patterns and
   its table against a dense reference, the perfect-hybrid union property,
   the bank's allocation ceiling, and the ablation banks through the
   listener. *)

module H = Predictors.Hybrid

let bank components = H.create ~components ()

let hit_count components stream =
  List.length (List.filter Fun.id (H.hits (bank components) stream))

let range a b = List.init (b - a) (fun i -> Int64.of_int (a + i))

let test_last_value () =
  (* constant stream: everything after the first is a hit *)
  Alcotest.(check int) "constant stream" 9
    (hit_count [ H.Last_value ] (List.init 10 (fun _ -> 7L)));
  (* strided stream: never correct *)
  Alcotest.(check int) "stride stream" 0 (hit_count [ H.Last_value ] (range 0 10))

let test_stride () =
  (* after two samples the stride locks on: 8 of 10 hit *)
  Alcotest.(check int) "stride stream" 8 (hit_count [ H.Stride ] (range 0 10));
  Alcotest.(check int) "constant stream" 9
    (hit_count [ H.Stride ] (List.init 10 (fun _ -> 3L)))

let test_two_delta_filters_noise () =
  (* a stride-1 stream with a single glitch: 0 1 2 3 99 4 5 6 7 8.
     Plain stride mispredicts twice after the glitch (stride jumps to 96,
     then to -95); 2-delta keeps predicting stride 1 and recovers faster. *)
  let glitchy = [ 0L; 1L; 2L; 3L; 99L; 4L; 5L; 6L; 7L; 8L ] in
  let h2 = hit_count [ H.Two_delta ] glitchy and hs = hit_count [ H.Stride ] glitchy in
  Alcotest.(check bool)
    (Printf.sprintf "2-delta (%d) >= stride (%d) on glitchy stream" h2 hs)
    true (h2 >= hs);
  (* but a persistent stride change is adopted after two observations *)
  let shifted = [ 0L; 1L; 2L; 10L; 18L; 26L; 34L ] in
  Alcotest.(check bool) "adopts new stride" true (hit_count [ H.Two_delta ] shifted >= 2)

let test_fcm_periodic () =
  (* period-3 pattern: FCM learns it after one period, the others cannot *)
  let pattern = List.concat (List.init 8 (fun _ -> [ 5L; 9L; 2L ])) in
  let fcm_hits = hit_count [ H.Fcm ] pattern in
  Alcotest.(check bool)
    (Printf.sprintf "fcm learns period-3 (%d hits)" fcm_hits)
    true (fcm_hits >= 15);
  Alcotest.(check bool) "stride cannot" true (hit_count [ H.Stride ] pattern <= 2)

(* A reset bank behaves as a fresh one, whatever it learnt before: every
   component alone and the whole bank, after a stream that trains FCM on
   the very contexts replayed and 2-delta on a new stride. *)
let test_reset () =
  let stream = [ 5L; 9L; 2L; 5L; 9L; 2L; 5L; 9L ] in
  List.iter
    (fun components ->
      let used = bank components and fresh = bank components in
      List.iter (fun v -> ignore (H.step used v)) (range 0 20 @ stream);
      H.reset used;
      Alcotest.(check (list bool)) "reset bank = fresh bank"
        (List.map (H.step fresh) stream)
        (List.map (H.step used) stream))
    (H.all :: List.map (fun c -> [ c ]) H.all)

let test_accuracy () =
  let acc =
    float_of_int (hit_count [ H.Last_value ] (List.init 10 (fun _ -> 4L))) /. 10.0
  in
  Alcotest.(check bool) "accuracy 0.9" true (abs_float (acc -. 0.9) < 1e-9)

(* 2-delta as its three rules state it, with an explicit optional
   candidate: a delta equal to the stride clears the candidate, one equal
   to the candidate is adopted, any other becomes the candidate. *)
let prop_two_delta_rules =
  QCheck.Test.make ~name:"2-delta bank = three-rule reference" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 60) (int_bound 4))
    (fun xs ->
      let b = bank [ H.Two_delta ] in
      let last = ref None and stride = ref 0L and candidate = ref None in
      List.for_all
        (fun x ->
          let v = Int64.of_int x in
          let predicted =
            match !last with Some l -> Int64.equal (Int64.add l !stride) v | None -> false
          in
          (match !last with
          | Some l ->
              let d = Int64.sub v l in
              if Int64.equal d !stride then candidate := None
              else if !candidate = Some d then begin
                stride := d;
                candidate := None
              end
              else candidate := Some d
          | None -> ());
          last := Some v;
          Bool.equal predicted (H.step b v))
        xs)

(* FCM's context hash over a dense table of 4,096 slots: seed 5381, newest
   value first, masked at each step. *)
let dense_slot history =
  List.fold_left
    (fun acc v ->
      Int64.to_int
        (Int64.logand
           (Int64.mul (Int64.logxor v (Int64.of_int acc)) 0x9E3779B97F4A7C15L)
           Int64.max_int)
      land 4095)
    5381 history

(* A single-FCM bank predicts exactly what FCM over a dense 4,096-slot
   table predicts, over random streams with resets interleaved ([None] in
   the stream is a reset). Values come from 0..255, so distinct contexts
   share slots: the corpus must contain at least one lookup that reads a
   slot another context wrote (over 0..40 every context has its own). *)
let test_fcm_matches_dense () =
  let foreign = ref 0 in
  let prop =
    QCheck.Test.make ~name:"fcm bank = dense fcm" ~count:300
      QCheck.(list_of_size (Gen.int_range 0 600) (option ~ratio:0.99 (int_bound 255)))
      (fun stream ->
        let b = bank [ H.Fcm ] in
        (* slot -> (context that wrote it, value) *)
        let table : ((int64 * int64) * int64) option array = Array.make 4096 None in
        let history = ref [] in
        List.for_all
          (function
            | None ->
                H.reset b;
                Array.fill table 0 4096 None;
                history := [];
                true
            | Some x ->
                let v = Int64.of_int x in
                let slot =
                  match !history with
                  | [ last; prev ] -> Some (dense_slot !history, (last, prev))
                  | _ -> None
                in
                let predicted =
                  match slot with
                  | Some (h, ctx) -> (
                      match table.(h) with
                      | Some (writer, g) ->
                          if writer <> ctx then incr foreign;
                          Int64.equal g v
                      | None -> false)
                  | None -> false
                in
                Option.iter (fun (h, ctx) -> table.(h) <- Some (ctx, v)) slot;
                history := List.filteri (fun i _ -> i < 2) (v :: !history);
                Bool.equal predicted (H.step b v))
          stream)
  in
  QCheck.Test.check_exn prop;
  Alcotest.(check bool)
    (Printf.sprintf "%d lookups read another context's slot" !foreign)
    true (!foreign > 0)

let test_hybrid_union () =
  let h = H.create () in
  (* strided stream: stride component covers it *)
  Alcotest.(check bool) "hybrid covers stride" true
    (List.length (List.filter Fun.id (H.hits h (range 0 20))) >= 17);
  H.reset h;
  (* constant stream: last-value covers it *)
  Alcotest.(check bool) "hybrid covers constant" true
    (List.length (List.filter Fun.id (H.hits h (List.init 20 (fun _ -> 6L)))) >= 19)

(* Property: the hybrid hits at least as often as any single component run
   over the same stream (perfect hybridization = union). *)
let prop_hybrid_dominates =
  QCheck.Test.make ~name:"hybrid >= each component" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (int_bound 20))
    (fun xs ->
      let stream = List.map Int64.of_int xs in
      let hybrid_hits = hit_count H.all stream in
      List.for_all (fun c -> hit_count [ c ] stream <= hybrid_hits) H.all)

let prop_perfect_stream_no_misses =
  QCheck.Test.make ~name:"affine streams: at most 2 initial misses" ~count:100
    QCheck.(pair (int_range (-50) 50) (int_range (-20) 20))
    (fun (start, step) ->
      let stream = List.init 20 (fun i -> Int64.of_int (start + (i * step))) in
      let misses = List.length (List.filter not (H.hits (H.create ()) stream)) in
      misses <= 2)

(* The telemetry counters are interned once, when the module loads:
   creating another bank registers nothing new. *)
let test_hybrid_counters_interned () =
  ignore (H.create ());
  let before = Obs.Telemetry.counters () in
  ignore (H.create ());
  Alcotest.(check (list string)) "no new counter"
    (List.map fst before)
    (List.map fst (Obs.Telemetry.counters ()))

let test_bits_of_rv () =
  Alcotest.(check int64) "int bits" 5L (H.bits_of_rv (Interp.Rvalue.Vint 5L));
  Alcotest.(check int64) "bool bits" 1L (H.bits_of_rv (Interp.Rvalue.Vbool true));
  Alcotest.(check int64) "float bits" (Int64.bits_of_float 2.5)
    (H.bits_of_rv (Interp.Rvalue.Vfloat 2.5))

(* Heap words per bank creation and per step, counted exactly
   ([Alloc_words]). A bank is created per tracked LCD per loop invocation
   and steps once per header arrival, so both are on the listener's path;
   the default bank measures 21 words, and a step allocates only when
   FCM's table doubles: 4.9 words per step over these five streams, three
   of which bring a new context at almost every step. *)
let test_alloc_ceiling () =
  let words = Alloc_words.words in
  let streams =
    let lcg = ref 7L in
    [|
      Array.make 64 7L;
      Array.init 64 (fun i -> Int64.of_int (3 * i));
      Array.init 64 (fun i -> Int64.of_int (if i = 20 then 999 else 3 * i));
      Array.init 64 (fun i -> Int64.of_int [| 1; 5; 2; 9 |].(i mod 4));
      Array.init 64 (fun _ ->
          lcg := Int64.logand (Int64.add (Int64.mul !lcg 1103515245L) 12345L) 2147483647L;
          !lcg);
    |]
  in
  let n = 1000 in
  let banks = Array.make n (H.create ()) in
  let before = words () in
  for i = 0 to n - 1 do
    banks.(i) <- H.create ()
  done;
  let per_bank = (words () -. before) /. float_of_int n in
  let before = words () in
  for i = 0 to n - 1 do
    let s = streams.(i mod Array.length streams) in
    for j = 0 to Array.length s - 1 do
      ignore (H.step banks.(i) s.(j))
    done
  done;
  let per_step = (words () -. before) /. float_of_int (n * 64) in
  if per_bank > 24.0 then Alcotest.failf "%.2f words per bank, ceiling 24" per_bank;
  if per_step > 6.0 then Alcotest.failf "%.2f words per step, ceiling 6" per_step

(* Ablation C of [bench/main.exe --ablation] through the listener: the
   default bank, then each component alone, on the same four programs at the
   same fuel. Per program the register-LCD instance count is bank-independent;
   each bank pins its summed mispredicts and its reduc1-dep2-fn2 PDOALL
   speedup, by bit pattern. *)
let ablation_programs = [ "181_mcf"; "254_gap"; "164_gzip"; "456_hmmer" ]

let ablation_instances = [ 2100; 6000; 4927; 20000 ]

let ablation_banks =
  [
    ( "hybrid-of-4",
      H.all,
      [
        (2073, 0x400b3bbc3421de82L);
        (3679, 0x400ea3f8b957959bL);
        (4004, 0x4002863dc81d1dbfL);
        (966, 0x40416e3c4bc6814aL);
      ] );
    ( "last-value",
      [ H.Last_value ],
      [
        (2099, 0x400b3bbc3421de82L);
        (5295, 0x3ff3b122d0bd013bL);
        (4618, 0x3ffe98c1b4cb9e1bL);
        (1022, 0x40416e3c4bc6814aL);
      ] );
    ( "stride",
      [ H.Stride ],
      [
        (2084, 0x400b3bbc3421de82L);
        (4557, 0x3ffdec4f809be611L);
        (4005, 0x4002863dc81d1dbfL);
        (1191, 0x40416e3c4bc6814aL);
      ] );
    ( "2-delta",
      [ H.Two_delta ],
      [
        (2088, 0x400b3bbc3421de82L);
        (4342, 0x40012ec53570c35dL);
        (4010, 0x40027f024851b079L);
        (1007, 0x40416e3c4bc6814aL);
      ] );
    ( "fcm",
      [ H.Fcm ],
      [
        (2100, 0x400b3bbc3421de82L);
        (5925, 0x3ff0000000000000L);
        (4622, 0x3ffe98c1b4cb9e1bL);
        (1716, 0x40416e3c4bc6814aL);
      ] );
  ]

let test_ablation_banks () =
  let cfg = Loopa.Config.of_string "reduc1-dep2-fn2 PDOALL" in
  List.iter
    (fun (label, predictors, expected) ->
      List.iteri
        (fun i name ->
          let mispredicts, speedup_bits = List.nth expected i in
          let b = Option.get (Suites.Suite.find name) in
          let a =
            Loopa.Driver.analyze_source ~predictors ~fuel:200_000_000 b.Suites.Suite.source
          in
          let instances, missed =
            Array.fold_left
              (fun acc (inv : Loopa.Profile.inv) ->
                Array.fold_left
                  (fun (n, m) (tr : Loopa.Profile.reg_track) ->
                    (n + tr.Loopa.Profile.n_instances, m + tr.Loopa.Profile.n_mispredicts))
                  acc inv.Loopa.Profile.tracks)
              (0, 0) a.Loopa.Driver.profile.Loopa.Profile.invs
          in
          let what = Printf.sprintf "%s %s" label name in
          Alcotest.(check int) (what ^ " instances") (List.nth ablation_instances i) instances;
          Alcotest.(check int) (what ^ " mispredicts") mispredicts missed;
          Alcotest.(check int64) (what ^ " speedup bits") speedup_bits
            (Int64.bits_of_float (Loopa.Driver.evaluate a cfg).Loopa.Evaluate.speedup))
        ablation_programs)
    ablation_banks

let () =
  Alcotest.run "predictors"
    [
      ( "components",
        [
          Alcotest.test_case "last-value" `Quick test_last_value;
          Alcotest.test_case "stride" `Quick test_stride;
          Alcotest.test_case "2-delta" `Quick test_two_delta_filters_noise;
          Alcotest.test_case "fcm periodic" `Quick test_fcm_periodic;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "accuracy" `Quick test_accuracy;
          QCheck_alcotest.to_alcotest prop_two_delta_rules;
          Alcotest.test_case "fcm bank = dense fcm (4096 slots)" `Quick
            test_fcm_matches_dense;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "union coverage" `Quick test_hybrid_union;
          Alcotest.test_case "bits_of_rv" `Quick test_bits_of_rv;
          QCheck_alcotest.to_alcotest prop_hybrid_dominates;
          QCheck_alcotest.to_alcotest prop_perfect_stream_no_misses;
          Alcotest.test_case "counters interned once" `Quick
            test_hybrid_counters_interned;
          Alcotest.test_case "allocation ceiling" `Quick test_alloc_ceiling;
        ] );
      ("ablation", [ Alcotest.test_case "Ablation C banks" `Quick test_ablation_banks ]);
    ]
