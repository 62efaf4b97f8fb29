(* Scalar evolution: expression algebra (simplify must preserve the semantics
   defined by eval), add-recurrence detection for IVs/MIVs/polynomials, and
   reduction recurrence descriptors including the conditional and nested
   forms the benchmarks rely on. *)

open Scev.Expr

let ck_i64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

let test_fold_constants () =
  Alcotest.(check bool) "add consts" true
    (equal (simplify (Add [ Const 2L; Const 3L ])) (Const 5L));
  Alcotest.(check bool) "mul consts" true
    (equal (simplify (Mul [ Const 2L; Const 3L ])) (Const 6L));
  Alcotest.(check bool) "mul zero" true
    (equal (simplify (Mul [ Const 0L; Unknown (Ir.Types.Param 0) ])) (Const 0L));
  Alcotest.(check bool) "add empty" true (equal (simplify (Add [])) (Const 0L));
  Alcotest.(check bool) "mul identity dropped" true
    (equal
       (simplify (Mul [ Const 1L; Unknown (Ir.Types.Param 0) ]))
       (Unknown (Ir.Types.Param 0)))

let test_addrec_merge () =
  (* {1,+,2} + {3,+,4} over the same loop = {4,+,6} *)
  let a = Add_rec { start = Const 1L; step = Const 2L; loop = 7 } in
  let b = Add_rec { start = Const 3L; step = Const 4L; loop = 7 } in
  match simplify (Add [ a; b ]) with
  | Add_rec { start = Const 4L; step = Const 6L; loop = 7 } -> ()
  | e -> Alcotest.failf "unexpected %s" (to_string e)

let test_const_folds_into_start () =
  let a = Add_rec { start = Const 1L; step = Const 2L; loop = 0 } in
  match simplify (Add [ Const 10L; a ]) with
  | Add_rec { start = Const 11L; step = Const 2L; loop = 0 } -> ()
  | e -> Alcotest.failf "unexpected %s" (to_string e)

let test_mul_distributes () =
  let a = Add_rec { start = Const 1L; step = Const 2L; loop = 0 } in
  match simplify (Mul [ Const 3L; a ]) with
  | Add_rec { start = Const 3L; step = Const 6L; loop = 0 } -> ()
  | e -> Alcotest.failf "unexpected %s" (to_string e)

let test_zero_step_collapses () =
  Alcotest.(check bool) "zero step" true
    (equal
       (simplify (Add_rec { start = Const 5L; step = Const 0L; loop = 0 }))
       (Const 5L))

let test_eval_addrec () =
  (* {3,+,2} at k = 5 -> 13 *)
  let e = Add_rec { start = Const 3L; step = Const 2L; loop = 0 } in
  let env _ = 0L in
  Alcotest.check ck_i64 "affine eval" 13L (eval ~env ~iters:[ (0, 5) ] e);
  (* polynomial: {0,+,{1,+,1}}: x_k = sum of 1..k-1 of (1+j)... = k(k+1)/2 *)
  let poly =
    Add_rec
      { start = Const 0L; step = Add_rec { start = Const 1L; step = Const 1L; loop = 0 }; loop = 0 }
  in
  Alcotest.check ck_i64 "triangular eval" 15L (eval ~env ~iters:[ (0, 5) ] poly)

(* Property: simplify preserves eval on random expressions. *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun i -> Const (Int64.of_int i)) (int_range (-20) 20);
        map (fun i -> Unknown (Ir.Types.Param (i land 3))) (int_range 0 3);
      ]
  in
  fix
    (fun self n ->
      if n <= 1 then leaf
      else
        oneof
          [
            leaf;
            map (fun es -> Add es) (list_size (int_range 1 3) (self (n / 2)));
            map (fun es -> Mul es) (list_size (int_range 1 2) (self (n / 2)));
            map2
              (fun s t -> Add_rec { start = s; step = t; loop = 0 })
              (self (n / 2)) (self (n / 2));
          ])
    6

let prop_simplify_preserves_eval =
  QCheck.Test.make ~name:"simplify preserves eval" ~count:500 (QCheck.make gen_expr)
    (fun e ->
      let env v =
        match v with Ir.Types.Param i -> Int64.of_int ((i * 7) + 3) | _ -> 1L
      in
      let iters = [ (0, 4) ] in
      Int64.equal (eval ~env ~iters e) (eval ~env ~iters (simplify e)))

(* Shrunk counterexamples of idempotence: one pass merged the steps to
   zero without collapsing the recurrence, and the collapse then left a sum
   inside a sum. *)
let test_simplify_fixpoint () =
  let rec_ start step = Add_rec { start; step; loop = 0 } in
  let arg2 = Unknown (Ir.Types.Param 2) in
  List.iter
    (fun (e, want) ->
      let s = simplify e in
      Alcotest.(check string) (to_string e) want (to_string s);
      Alcotest.(check string) "idempotent" (to_string s) (to_string (simplify s)))
    [
      (Add [ rec_ (Const (-1L)) (Const 6L); rec_ (Const 15L) (Const (-6L)) ], "14");
      (Add [ rec_ arg2 (Const 1L); rec_ arg2 (Const (-1L)); Const 4L ], "(4 + %arg2 + %arg2)");
    ]

let prop_simplify_idempotent =
  QCheck.Test.make ~name:"simplify idempotent" ~count:300
    (QCheck.make ~print:to_string gen_expr)
    (fun e ->
      let s = simplify e in
      equal s (simplify s))

(* ---- analysis over real IR ---- *)

let analyze src =
  let m = Frontend.compile_exn src in
  Cfg.Loop_simplify.run_module m;
  let fn = Option.get (Ir.Func.find_func m "main") in
  let cfg = Cfg.Graph.build fn in
  let dom = Cfg.Dom.compute cfg in
  let li = Cfg.Loopinfo.compute cfg dom in
  (fn, li, Scev.Analysis.create fn li)

(* Classify all header phis of all loops in main. *)
let phi_classes (fn, li, scev) =
  Cfg.Loopinfo.loops li
  |> List.concat_map (fun (l : Cfg.Loopinfo.loop) ->
         Ir.Func.phis fn l.Cfg.Loopinfo.header
         |> List.map (fun (i : Ir.Instr.t) ->
                Scev.Analysis.classify_header_phi scev i.Ir.Instr.id))

let count_computable cls =
  List.length
    (List.filter
       (function
         | Scev.Analysis.Computable _ | Scev.Analysis.Computable_shifted _ -> true
         | Scev.Analysis.Non_computable -> false)
       cls)

let test_iv_detected () =
  let ctx =
    analyze
      {|
fn main() -> int {
  var t: int = 0;
  for (var i: int = 0; i < 10; i = i + 1) { t = t ^ i; }
  print_int(t);
  return 0;
}
|}
  in
  let cls = phi_classes ctx in
  (* two header phis: i (computable IV) and t (xor chain: non-computable by
     scev, but it is a reduction — classified elsewhere) *)
  Alcotest.(check int) "phis" 2 (List.length cls);
  Alcotest.(check int) "one computable" 1 (count_computable cls)

let test_miv_detected () =
  let ctx =
    analyze
      {|
fn main() -> int {
  var x: int = 0;
  var acc: int = 0;
  for (var i: int = 0; i < 10; i = i + 1) {
    x = x + i * 2 + 1;    // polynomial in i: still computable
    acc = acc ^ x;
  }
  print_int(acc + x);
  return 0;
}
|}
  in
  let cls = phi_classes ctx in
  Alcotest.(check int) "phis" 3 (List.length cls);
  Alcotest.(check bool) "x is computable (polynomial MIV)" true (count_computable cls >= 2)

let test_noncomputable_load () =
  let ctx =
    analyze
      {|
fn main() -> int {
  var a: int[] = new int[10];
  var p: int = 0;
  for (var i: int = 0; i < 9; i = i + 1) {
    p = a[p];   // memory-fed: never computable
  }
  print_int(p);
  return 0;
}
|}
  in
  let cls = phi_classes ctx in
  Alcotest.(check int) "phis" 2 (List.length cls);
  Alcotest.(check int) "only the IV computable" 1 (count_computable cls)

let test_invariant_phi () =
  let ctx =
    analyze
      {|
fn main() -> int {
  var k: int = 7;
  var t: int = 0;
  for (var i: int = 0; i < 10; i = i + 1) {
    t = t ^ k;  // k never changes: any k-phi is invariant/computable
  }
  print_int(t + k);
  return 0;
}
|}
  in
  (* k does not even get a phi (SSA construction removes the trivial one) *)
  let cls = phi_classes ctx in
  Alcotest.(check int) "phis" 2 (List.length cls)

(* ---- reductions ---- *)

let reductions_in src =
  let m = Frontend.compile_exn src in
  Cfg.Loop_simplify.run_module m;
  let fn = Option.get (Ir.Func.find_func m "main") in
  let cfg = Cfg.Graph.build fn in
  let dom = Cfg.Dom.compute cfg in
  let li = Cfg.Loopinfo.compute cfg dom in
  Cfg.Loopinfo.loops li
  |> List.concat_map (fun (l : Cfg.Loopinfo.loop) ->
         Ir.Func.phis fn l.Cfg.Loopinfo.header
         |> List.filter_map (fun (i : Ir.Instr.t) ->
                Scev.Recurrence.detect fn li i.Ir.Instr.id))

let kinds src = List.map (fun d -> d.Scev.Recurrence.kind) (reductions_in src)

let one_loop body =
  Printf.sprintf
    {|
fn main() -> int {
  var a: int[] = new int[32];
  var f: float[] = new float[32];
  for (var i: int = 0; i < 32; i = i + 1) { a[i] = i * 3 %% 7; f[i] = float(i); }
  %s
  return 0;
}
|}
    body

let test_sum_reduction () =
  let k =
    kinds
      (one_loop
         {|
  var s: int = 0;
  for (var i: int = 0; i < 32; i = i + 1) { s = s + a[i]; }
  print_int(s);
|})
  in
  Alcotest.(check bool) "sum found" true (List.mem Scev.Recurrence.Sum k)

let test_product_reduction () =
  let k =
    kinds
      (one_loop
         {|
  var p: int = 1;
  for (var i: int = 0; i < 32; i = i + 1) { p = p * (1 + a[i]); }
  print_int(p);
|})
  in
  Alcotest.(check bool) "prod found" true (List.mem Scev.Recurrence.Prod k)

let test_float_sum_reduction () =
  let k =
    kinds
      (one_loop
         {|
  var s: float = 0.0;
  for (var i: int = 0; i < 32; i = i + 1) { s = s + f[i] * 2.0; }
  print_float(s);
|})
  in
  Alcotest.(check bool) "fsum found" true (List.mem Scev.Recurrence.Fsum k)

let test_minmax_reduction () =
  let k =
    kinds
      (one_loop
         {|
  var mx: int = -1000;
  var mn: float = 1000.0;
  for (var i: int = 0; i < 32; i = i + 1) {
    mx = imax(mx, a[i]);
    mn = fminv(mn, f[i]);
  }
  print_int(mx);
  print_float(mn);
|})
  in
  Alcotest.(check bool) "max found" true (List.mem Scev.Recurrence.Max k);
  Alcotest.(check bool) "fmin found" true (List.mem Scev.Recurrence.Fmin k)

let test_conditional_sum_reduction () =
  let k =
    kinds
      (one_loop
         {|
  var c: int = 0;
  for (var i: int = 0; i < 32; i = i + 1) {
    if (a[i] > 3) { c = c + 1; }
  }
  print_int(c);
|})
  in
  Alcotest.(check bool) "conditional sum found" true (List.mem Scev.Recurrence.Sum k)

let test_nested_min_reduction () =
  (* accumulator threaded through an inner loop's header phi *)
  let k =
    kinds
      (one_loop
         {|
  var best: int = 1000000;
  for (var i: int = 0; i < 8; i = i + 1) {
    for (var j: int = 0; j < 4; j = j + 1) {
      best = imin(best, a[i * 4 + j]);
    }
  }
  print_int(best);
|})
  in
  Alcotest.(check bool) "nested min found" true (List.mem Scev.Recurrence.Min k)

let test_reset_not_reduction () =
  (* a conditional reset breaks the accumulation pattern *)
  let k =
    kinds
      (one_loop
         {|
  var r: int = 0;
  for (var i: int = 0; i < 32; i = i + 1) {
    if (a[i] == 0) { r = 0; } else { r = r + 1; }
  }
  print_int(r);
|})
  in
  Alcotest.(check bool) "reset rejected" false (List.mem Scev.Recurrence.Sum k)

let test_escaping_use_not_reduction () =
  (* the running value feeds other computation: cannot be decoupled *)
  let k =
    kinds
      (one_loop
         {|
  var s: int = 0;
  var t: int = 0;
  for (var i: int = 0; i < 32; i = i + 1) {
    s = s + a[i];
    t = t ^ (s & 1);   // reads the running sum
  }
  print_int(s + t);
|})
  in
  Alcotest.(check bool) "escaping sum rejected" false (List.mem Scev.Recurrence.Sum k)

let test_mixed_ops_not_reduction () =
  let k =
    kinds
      (one_loop
         {|
  var s: int = 1;
  for (var i: int = 0; i < 32; i = i + 1) {
    if (a[i] > 3) { s = s + 1; } else { s = s * 2; }
  }
  print_int(s);
|})
  in
  Alcotest.(check int) "mixed sum/prod rejected" 0 (List.length k)

(* ---- trip counts ---- *)

let trip_of src =
  let m = Frontend.compile_exn src in
  Cfg.Loop_simplify.run_module m;
  let fn = Option.get (Ir.Func.find_func m "main") in
  let cfg = Cfg.Graph.build fn in
  let dom = Cfg.Dom.compute cfg in
  let li = Cfg.Loopinfo.compute cfg dom in
  let scev = Scev.Analysis.create fn li in
  match Cfg.Loopinfo.loops li with
  | [ l ] -> Scev.Trip_count.of_loop fn li scev l.Cfg.Loopinfo.lid
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls)

let loop_src header body =
  Printf.sprintf
    "fn main() -> int { var t: int = 0; %s { t = t ^ %s; } print_int(t); return 0; }"
    header body

let ck_trip name want src =
  Alcotest.(check (option int64)) name want (trip_of src)

let test_trip_counts () =
  (* header arrivals = body executions + the final failing test *)
  ck_trip "i < 10" (Some 11L) (loop_src "for (var i: int = 0; i < 10; i = i + 1)" "i");
  ck_trip "i <= 10" (Some 12L) (loop_src "for (var i: int = 0; i <= 10; i = i + 1)" "i");
  ck_trip "step 3" (Some 5L) (loop_src "for (var i: int = 0; i < 12; i = i + 3)" "i");
  ck_trip "downward" (Some 8L) (loop_src "for (var i: int = 7; i >= 1; i = i - 1)" "i");
  ck_trip "ne exact" (Some 6L) (loop_src "for (var i: int = 0; i != 10; i = i + 2)" "i");
  ck_trip "ne misaligned" None (loop_src "for (var i: int = 0; i != 9; i = i + 2)" "i");
  ck_trip "zero trips" (Some 1L) (loop_src "for (var i: int = 5; i < 5; i = i + 1)" "i")

let test_trip_count_unknown () =
  (* data-dependent bound: not computable *)
  Alcotest.(check (option int64)) "dynamic bound" None
    (trip_of
       {|
fn main() -> int {
  var a: int[] = new int[4];
  a[0] = 9;
  var t: int = 0;
  for (var i: int = 0; i < a[0]; i = i + 1) { t = t + i; }
  print_int(t);
  return 0;
}
|});
  (* break inside: the header is not the only exit *)
  Alcotest.(check (option int64)) "extra exit" None
    (trip_of
       {|
fn main() -> int {
  var t: int = 0;
  for (var i: int = 0; i < 100; i = i + 1) {
    if (i == 3) { break; }
    t = t + i;
  }
  print_int(t);
  return 0;
}
|})

let () =
  Alcotest.run "scev"
    [
      ( "algebra",
        [
          Alcotest.test_case "constant folding" `Quick test_fold_constants;
          Alcotest.test_case "addrec merge" `Quick test_addrec_merge;
          Alcotest.test_case "const into start" `Quick test_const_folds_into_start;
          Alcotest.test_case "mul distributes" `Quick test_mul_distributes;
          Alcotest.test_case "zero step" `Quick test_zero_step_collapses;
          Alcotest.test_case "simplify to a fixpoint" `Quick test_simplify_fixpoint;
          Alcotest.test_case "eval addrec" `Quick test_eval_addrec;
          QCheck_alcotest.to_alcotest prop_simplify_preserves_eval;
          QCheck_alcotest.to_alcotest prop_simplify_idempotent;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "IV detected" `Quick test_iv_detected;
          Alcotest.test_case "polynomial MIV" `Quick test_miv_detected;
          Alcotest.test_case "load non-computable" `Quick test_noncomputable_load;
          Alcotest.test_case "invariant phi" `Quick test_invariant_phi;
          Alcotest.test_case "trip counts" `Quick test_trip_counts;
          Alcotest.test_case "trip count unknown" `Quick test_trip_count_unknown;
        ] );
      ( "reductions",
        [
          Alcotest.test_case "sum" `Quick test_sum_reduction;
          Alcotest.test_case "product" `Quick test_product_reduction;
          Alcotest.test_case "float sum" `Quick test_float_sum_reduction;
          Alcotest.test_case "min/max" `Quick test_minmax_reduction;
          Alcotest.test_case "conditional sum" `Quick test_conditional_sum_reduction;
          Alcotest.test_case "nested min" `Quick test_nested_min_reduction;
          Alcotest.test_case "reset rejected" `Quick test_reset_not_reduction;
          Alcotest.test_case "escape rejected" `Quick test_escaping_use_not_reduction;
          Alcotest.test_case "mixed ops rejected" `Quick test_mixed_ops_not_reduction;
        ] );
    ]
