(* Value predictors (paper §III-C): each predictor on characteristic streams,
   the 2-delta hysteresis, FCM periodic patterns, and the perfect-hybrid
   union property. *)

let hit_count p stream =
  List.length (List.filter Fun.id (Predictors.Predictor.hits p stream))

let range a b = List.init (b - a) (fun i -> Int64.of_int (a + i))

let test_last_value () =
  let p = Predictors.Last_value.create () in
  (* constant stream: everything after the first is a hit *)
  Alcotest.(check int) "constant stream" 9
    (hit_count p (List.init 10 (fun _ -> 7L)));
  (* strided stream: never correct *)
  Alcotest.(check int) "stride stream" 0 (hit_count p (range 0 10))

let test_stride () =
  let p = Predictors.Stride.create () in
  (* after two samples the stride locks on: 8 of 10 hit *)
  Alcotest.(check int) "stride stream" 8 (hit_count p (range 0 10));
  Alcotest.(check int) "constant stream" 9
    (hit_count p (List.init 10 (fun _ -> 3L)))

let test_two_delta_filters_noise () =
  let p2 = Predictors.Two_delta.create () in
  let ps = Predictors.Stride.create () in
  (* a stride-1 stream with a single glitch: 0 1 2 3 99 4 5 6 7 8.
     Plain stride mispredicts twice after the glitch (stride jumps to 96,
     then to -95); 2-delta keeps predicting stride 1 and recovers faster. *)
  let glitchy = [ 0L; 1L; 2L; 3L; 99L; 4L; 5L; 6L; 7L; 8L ] in
  let h2 = hit_count p2 glitchy and hs = hit_count ps glitchy in
  Alcotest.(check bool)
    (Printf.sprintf "2-delta (%d) >= stride (%d) on glitchy stream" h2 hs)
    true (h2 >= hs);
  (* but a persistent stride change is adopted after two observations *)
  let shifted = [ 0L; 1L; 2L; 10L; 18L; 26L; 34L ] in
  Alcotest.(check bool) "adopts new stride" true (hit_count p2 shifted >= 2)

let test_fcm_periodic () =
  let p = Predictors.Fcm.create () in
  (* period-3 pattern: FCM learns it after one period, the others cannot *)
  let pattern = List.concat (List.init 8 (fun _ -> [ 5L; 9L; 2L ])) in
  let fcm_hits = hit_count p pattern in
  Alcotest.(check bool)
    (Printf.sprintf "fcm learns period-3 (%d hits)" fcm_hits)
    true (fcm_hits >= 15);
  let s = Predictors.Stride.create () in
  Alcotest.(check bool) "stride cannot" true (hit_count s pattern <= 2)

let test_predictor_reset () =
  let p = Predictors.Last_value.create () in
  ignore (Predictors.Predictor.hits p [ 1L; 1L ]);
  p.Predictors.Predictor.reset ();
  Alcotest.(check (option int64)) "reset clears" None (p.Predictors.Predictor.predict ())

let test_accuracy () =
  let p = Predictors.Last_value.create () in
  let acc = Predictors.Predictor.accuracy p (List.init 10 (fun _ -> 4L)) in
  Alcotest.(check bool) "accuracy 0.9" true (abs_float (acc -. 0.9) < 1e-9)

let test_hybrid_union () =
  let h = Predictors.Hybrid.create () in
  (* strided stream: stride component covers it *)
  Alcotest.(check bool) "hybrid covers stride" true
    (List.length (List.filter Fun.id (Predictors.Hybrid.hits h (range 0 20))) >= 17);
  Predictors.Hybrid.reset h;
  (* constant stream: last-value covers it *)
  Alcotest.(check bool) "hybrid covers constant" true
    (List.length
       (List.filter Fun.id (Predictors.Hybrid.hits h (List.init 20 (fun _ -> 6L))))
    >= 19)

(* Property: the hybrid hits at least as often as any single component run
   over the same stream (perfect hybridization = union). *)
let prop_hybrid_dominates =
  QCheck.Test.make ~name:"hybrid >= each component" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (int_bound 20))
    (fun xs ->
      let stream = List.map Int64.of_int xs in
      let hybrid_hits =
        List.length
          (List.filter Fun.id (Predictors.Hybrid.hits (Predictors.Hybrid.create ()) stream))
      in
      List.for_all
        (fun mk ->
          let p = mk () in
          hit_count p stream <= hybrid_hits)
        [
          Predictors.Last_value.create;
          Predictors.Stride.create;
          Predictors.Two_delta.create;
          (fun () -> Predictors.Fcm.create ());
        ])

let prop_perfect_stream_no_misses =
  QCheck.Test.make ~name:"affine streams: at most 2 initial misses" ~count:100
    QCheck.(pair (int_range (-50) 50) (int_range (-20) 20))
    (fun (start, step) ->
      let stream = List.init 20 (fun i -> Int64.of_int (start + (i * step))) in
      let h = Predictors.Hybrid.create () in
      let misses = List.length (List.filter not (Predictors.Hybrid.hits h stream)) in
      misses <= 2)

(* Reference FCM over a dense table of 2^table_bits slots, the definition
   the sparse table must reproduce entry for entry, collisions included. *)
let dense_fcm ~order ~table_bits : Predictors.Predictor.t =
  let table_size = 1 lsl table_bits in
  let table : int64 option array = Array.make table_size None in
  let history = ref [] in
  let hash_history () =
    if List.length !history < order then None
    else
      Some
        (List.fold_left
           (fun acc v ->
             let h =
               Int64.to_int
                 (Int64.logand
                    (Int64.mul (Int64.logxor v (Int64.of_int acc)) 0x9E3779B97F4A7C15L)
                    Int64.max_int)
             in
             h land (table_size - 1))
           5381 !history)
  in
  {
    Predictors.Predictor.name = "dense-fcm";
    predict = (fun () -> Option.bind (hash_history ()) (fun h -> table.(h)));
    train =
      (fun v ->
        Option.iter (fun h -> table.(h) <- Some v) (hash_history ());
        history := List.filteri (fun i _ -> i < order) (v :: !history));
    reset =
      (fun () ->
        Array.fill table 0 table_size None;
        history := []);
  }

(* Property: at table_bits 2 (four slots, so contexts collide constantly)
   the sparse FCM predicts exactly what the dense reference predicts, over
   random streams with resets interleaved. [None] in the stream is a
   reset. *)
let prop_fcm_matches_dense =
  QCheck.Test.make ~name:"sparse fcm = dense fcm (table_bits 2)" ~count:300
    QCheck.(
      pair (int_range 1 3)
        (list_of_size (Gen.int_range 0 80) (option ~ratio:0.95 (int_bound 6))))
    (fun (order, stream) ->
      let sparse = Predictors.Fcm.create ~order ~table_bits:2 () in
      let dense = dense_fcm ~order ~table_bits:2 in
      List.for_all
        (function
          | None ->
              sparse.Predictors.Predictor.reset ();
              dense.Predictors.Predictor.reset ();
              true
          | Some x ->
              let v = Int64.of_int x in
              let same =
                Option.equal Int64.equal
                  (sparse.Predictors.Predictor.predict ())
                  (dense.Predictors.Predictor.predict ())
              in
              sparse.Predictors.Predictor.train v;
              dense.Predictors.Predictor.train v;
              same)
        stream)

(* The per-component telemetry counters are interned once per component
   name: creating another bank registers nothing new. *)
let test_hybrid_counters_interned () =
  ignore (Predictors.Hybrid.create ());
  let before = Obs.Telemetry.counters () in
  ignore (Predictors.Hybrid.create ());
  Alcotest.(check (list string)) "no new counter"
    (List.map fst before)
    (List.map fst (Obs.Telemetry.counters ()))

let test_bits_of_rv () =
  Alcotest.(check int64) "int bits" 5L (Predictors.Hybrid.bits_of_rv (Interp.Rvalue.Vint 5L));
  Alcotest.(check int64) "bool bits" 1L
    (Predictors.Hybrid.bits_of_rv (Interp.Rvalue.Vbool true));
  Alcotest.(check int64) "float bits" (Int64.bits_of_float 2.5)
    (Predictors.Hybrid.bits_of_rv (Interp.Rvalue.Vfloat 2.5))

let () =
  Alcotest.run "predictors"
    [
      ( "components",
        [
          Alcotest.test_case "last-value" `Quick test_last_value;
          Alcotest.test_case "stride" `Quick test_stride;
          Alcotest.test_case "2-delta" `Quick test_two_delta_filters_noise;
          Alcotest.test_case "fcm periodic" `Quick test_fcm_periodic;
          Alcotest.test_case "reset" `Quick test_predictor_reset;
          Alcotest.test_case "accuracy" `Quick test_accuracy;
          QCheck_alcotest.to_alcotest prop_fcm_matches_dense;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "union coverage" `Quick test_hybrid_union;
          Alcotest.test_case "bits_of_rv" `Quick test_bits_of_rv;
          QCheck_alcotest.to_alcotest prop_hybrid_dominates;
          QCheck_alcotest.to_alcotest prop_perfect_stream_no_misses;
          Alcotest.test_case "counters interned once" `Quick
            test_hybrid_counters_interned;
        ] );
    ]
