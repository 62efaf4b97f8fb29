(* Cost-model unit tests (paper §III-B): DOALL, Partial-DOALL with the 80%
   conflict cutoff and phase accounting, the HELIX formula and its serial
   cutoff — plus cross-model invariants as properties, and bit-for-bit
   agreement with a table-based reference transcription of the formulas. *)

(* conflicts: (consumer iteration, delta); the producer defaults to the
   immediately preceding iteration. [far_conflicts] takes explicit
   producers for the phase-commit tests. A later entry for an iteration
   replaces an earlier one. *)
let input ?(conflicts = []) ?(far_conflicts = []) ?(reg_sync_delta = 0.0)
    ?(serial_static = false) costs =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, d) -> Hashtbl.replace tbl k (d, k - 1)) conflicts;
  List.iter (fun (k, d, prod) -> Hashtbl.replace tbl k (d, prod)) far_conflicts;
  let conf = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
  let costs = Array.of_list costs in
  {
    Loopa.Model.iter_costs = costs;
    n_iters = Array.length costs;
    serial = Array.fold_left ( +. ) 0.0 costs;
    slowest = Array.fold_left Float.max 0.0 costs;
    conf_iter = Array.of_list (List.map fst conf);
    conf_delta = Array.of_list (List.map (fun (_, (d, _)) -> d) conf);
    conf_prod = Array.of_list (List.map (fun (_, (_, p)) -> p) conf);
    n_conflicts = List.length conf;
    reg_sync_delta;
    serial_static;
  }

let ckf = Alcotest.testable Fmt.float (fun a b -> abs_float (a -. b) < 1e-9)

let check_cost name want got =
  match (want, got) with
  | None, None -> ()
  | Some w, Some g -> Alcotest.check ckf name w g
  | Some _, None -> Alcotest.failf "%s: expected parallel, got serial" name
  | None, Some g -> Alcotest.failf "%s: expected serial, got %f" name g

let test_doall () =
  (* conflict-free: cost = slowest iteration *)
  check_cost "clean" (Some 5.0) (Loopa.Model.doall_cost (input [ 3.0; 5.0; 2.0 ]));
  (* any conflict abandons *)
  check_cost "one conflict" None
    (Loopa.Model.doall_cost (input ~conflicts:[ (1, 0.0) ] [ 3.0; 5.0; 2.0 ]));
  (* static serialization *)
  check_cost "static" None (Loopa.Model.doall_cost (input ~serial_static:true [ 3.0; 5.0 ]));
  (* a single iteration cannot profit *)
  check_cost "singleton" None (Loopa.Model.doall_cost (input [ 9.0 ]))

let test_pdoall_phases () =
  (* Figure 1b: conflict at iteration 2 of [4;4;4;4]: phase 1 = max(4,4)=4,
     phase 2 = max(4,4)=4 -> 8 *)
  check_cost "two phases" (Some 8.0)
    (Loopa.Model.pdoall_cost (input ~conflicts:[ (2, 0.0) ] [ 4.0; 4.0; 4.0; 4.0 ]));
  (* no conflicts: like DOALL *)
  check_cost "clean" (Some 4.0) (Loopa.Model.pdoall_cost (input [ 4.0; 1.0; 2.0 ]));
  (* conflict on iteration 0 opens a phase immediately: cost still max *)
  check_cost "conflict at 0" (Some 4.0)
    (Loopa.Model.pdoall_cost (input ~conflicts:[ (0, 0.0) ] [ 4.0; 1.0; 2.0 ]));
  (* consecutive adjacent conflicts: every iteration restarts, so the raw
     phase cost equals serial and Model.cost reports it as serial *)
  check_cost "all conflict raw" (Some 4.0)
    (Loopa.Model.pdoall_cost
       (input ~conflicts:[ (1, 0.0); (2, 0.0); (3, 0.0) ] [ 1.0; 1.0; 1.0; 1.0 ]));
  Alcotest.(check bool) "all conflict not better than serial" true
    (Loopa.Model.cost Loopa.Config.Pdoall
       (input ~conflicts:[ (1, 0.0); (2, 0.0); (3, 0.0) ] [ 1.0; 1.0; 1.0; 1.0 ])
    = None)

let test_pdoall_commit_satisfies () =
  (* every iteration reads what iteration 0 wrote: one restart commits the
     producer, after which the remaining reads are satisfied -> 2 phases *)
  let inp =
    input
      ~far_conflicts:(List.init 8 (fun i -> (i + 2, 0.0, 0)))
      (List.init 10 (fun _ -> 3.0))
  in
  check_cost "single producer" (Some 6.0) (Loopa.Model.pdoall_cost inp);
  (* but a chain (each iteration reads its predecessor) stays serial *)
  let chain = input ~conflicts:(List.init 9 (fun i -> (i + 1, 0.0))) (List.init 10 (fun _ -> 3.0)) in
  check_cost "chain serial" None (Loopa.Model.pdoall_cost chain)

(* Partial-DOALL is not monotone in its conflict set, by the paper's commit
   rule: a producer from before the current phase's start counts as
   committed. Without (2<-1) no phase starts at iteration 2, so producer 1
   is still in flight when iteration 4 reads it, and that restart costs a
   second 10-instruction phase. *)
let test_pdoall_not_monotone_in_conflicts () =
  let costs = [ 1.0; 1.0; 10.0; 1.0; 10.0 ] in
  let pdoall far_conflicts =
    Loopa.Model.cost Loopa.Config.Pdoall (input ~far_conflicts costs)
  in
  Alcotest.check ckf "serial" 23.0 (input costs).Loopa.Model.serial;
  check_cost "(2<-1) and (4<-1)" (Some 11.0)
    (pdoall [ (2, 0.0, 1); (4, 0.0, 1) ]);
  check_cost "(4<-1) alone" (Some 20.0) (pdoall [ (4, 0.0, 1) ])

let test_pdoall_cutoff () =
  (* 10 iterations: 8 conflicts = exactly 80% -> still allowed;
     9 conflicts > 80% -> serial *)
  let costs = List.init 10 (fun _ -> 2.0) in
  let conflicts n = List.init n (fun i -> (i + 1, 0.0)) in
  Alcotest.(check bool) "80% allowed" true
    (Loopa.Model.pdoall_cost (input ~conflicts:(conflicts 8) costs) <> None);
  Alcotest.(check bool) "90% serial" true
    (Loopa.Model.pdoall_cost (input ~conflicts:(conflicts 9) costs) = None)

let test_helix () =
  (* HELIX_time = slowest + delta * n *)
  check_cost "formula" (Some (5.0 +. (0.5 *. 4.0)))
    (Loopa.Model.helix_cost
       (input ~conflicts:[ (1, 0.5); (3, 0.25) ] [ 5.0; 4.0; 3.0; 2.0 ]));
  (* register sync contributes to delta_largest *)
  check_cost "reg sync" (Some (5.0 +. (1.5 *. 2.0)))
    (Loopa.Model.helix_cost (input ~reg_sync_delta:1.5 [ 5.0; 4.0 ]));
  (* static serialization still wins *)
  check_cost "static" None (Loopa.Model.helix_cost (input ~serial_static:true [ 5.0; 4.0 ]))

let test_model_serial_cutoff () =
  (* Model.cost returns None when the parallel estimate >= serial time.
     Here: slowest 4 + delta 4*2 = 12 >= serial 8. *)
  Alcotest.(check bool) "helix worse than serial -> None" true
    (Loopa.Model.cost Loopa.Config.Helix (input ~conflicts:[ (1, 4.0) ] [ 4.0; 4.0 ])
    = None);
  (* and Some when strictly better *)
  Alcotest.(check bool) "helix better -> Some" true
    (Loopa.Model.cost Loopa.Config.Helix (input ~conflicts:[ (1, 0.5) ] [ 4.0; 4.0 ])
    <> None)

(* ---- properties ---- *)

let gen_input =
  QCheck.Gen.(
    let* n = int_range 2 30 in
    let* costs = list_repeat n (map float_of_int (int_range 1 20)) in
    let* conflict_iters = list_size (int_range 0 n) (int_range 1 (n - 1)) in
    let* deltas = list_repeat (List.length conflict_iters) (map float_of_int (int_range 0 10)) in
    let+ prods = list_repeat (List.length conflict_iters) (int_range 0 (n - 1)) in
    let far =
      List.map2 (fun (k, d) p -> (k, d, min p (k - 1))) (List.combine conflict_iters deltas) prods
    in
    input ~far_conflicts:far costs)

let prop_pdoall_bounds =
  QCheck.Test.make ~name:"pdoall between slowest-iter and serial" ~count:300
    (QCheck.make gen_input) (fun inp ->
      match Loopa.Model.pdoall_cost inp with
      | None -> true
      | Some c ->
          c >= inp.Loopa.Model.slowest -. 1e-9 && c <= inp.Loopa.Model.serial +. 1e-9)

let prop_helix_at_least_slowest =
  QCheck.Test.make ~name:"helix >= slowest iteration" ~count:300 (QCheck.make gen_input)
    (fun inp ->
      match Loopa.Model.helix_cost inp with
      | None -> true
      | Some c -> c >= inp.Loopa.Model.slowest -. 1e-9)

let prop_model_cost_beats_serial =
  QCheck.Test.make ~name:"Model.cost only reports beating serial" ~count:300
    (QCheck.make gen_input) (fun inp ->
      List.for_all
        (fun m ->
          match Loopa.Model.cost m inp with
          | None -> true
          | Some c -> c < inp.Loopa.Model.serial)
        [ Loopa.Config.Doall; Loopa.Config.Pdoall; Loopa.Config.Helix ])

let prop_doall_cleanest =
  QCheck.Test.make ~name:"doall parallel implies pdoall parallel" ~count:300
    (QCheck.make gen_input) (fun inp ->
      match Loopa.Model.doall_cost inp with
      | None -> true
      | Some d -> (
          match Loopa.Model.pdoall_cost inp with
          | Some p -> p <= d +. 1e-9
          | None -> false))

(* ---- equivalence with the table-based formulas ---- *)

(* The formulas as they read over a hash table of conflicts, before [Model]
   took sorted arrays. The array-based models must agree with them bit for
   bit. *)
module Reference = struct
  type input = {
    iter_costs : float array;
    conflicts : (int, float * int) Hashtbl.t;
    reg_sync_delta : float;
    serial_static : bool;
  }

  let serial_cost inp = Array.fold_left ( +. ) 0.0 inp.iter_costs

  let slowest_iter inp = Array.fold_left Float.max 0.0 inp.iter_costs

  let num_conflicting inp = Hashtbl.length inp.conflicts

  let doall_cost inp : float option =
    if inp.serial_static || num_conflicting inp > 0 || inp.reg_sync_delta > 0.0 then None
    else if Array.length inp.iter_costs <= 1 then None
    else Some (slowest_iter inp)

  let pdoall_cost ?(cutoff = Loopa.Model.pdoall_conflict_cutoff) inp : float option =
    let n = Array.length inp.iter_costs in
    if inp.serial_static || inp.reg_sync_delta > 0.0 || n <= 1 then None
    else begin
      let cost = ref 0.0 and phase_max = ref 0.0 in
      let phase_start = ref 0 in
      let restarts = ref 0 in
      for k = 0 to n - 1 do
        (match Hashtbl.find_opt inp.conflicts k with
        | Some (_, prod) when prod >= !phase_start && k > !phase_start ->
            cost := !cost +. !phase_max;
            phase_max := 0.0;
            phase_start := k;
            incr restarts
        | Some _ | None -> ());
        phase_max := Float.max !phase_max inp.iter_costs.(k)
      done;
      if float_of_int !restarts > cutoff *. float_of_int n then None
      else Some (!cost +. !phase_max)
    end

  let helix_cost inp : float option =
    let n = Array.length inp.iter_costs in
    if inp.serial_static || n <= 1 then None
    else begin
      let delta_largest =
        Hashtbl.fold (fun _ (d, _) acc -> Float.max acc d) inp.conflicts inp.reg_sync_delta
      in
      Some (slowest_iter inp +. (delta_largest *. float_of_int n))
    end

  let cost ?pdoall_cutoff (model : Loopa.Config.model) inp : float option =
    let raw =
      match model with
      | Loopa.Config.Doall -> doall_cost inp
      | Loopa.Config.Pdoall -> pdoall_cost ?cutoff:pdoall_cutoff inp
      | Loopa.Config.Helix -> helix_cost inp
    in
    match raw with
    | Some c when c < serial_cost inp -> Some c
    | Some _ | None -> None
end

type case = {
  costs : float array;
  conflicts : (int * float * int) list; (* (consumer, delta, producer), ascending *)
  reg_sync : float;
  static : bool;
  cutoff : float option;
  pad : int; (* stale entries past the live prefix of every buffer *)
}

let print_case c =
  Printf.sprintf "costs=[%s] conflicts=[%s] reg_sync=%g static=%b cutoff=%s pad=%d"
    (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%g") c.costs)))
    (String.concat ";"
       (List.map (fun (k, d, p) -> Printf.sprintf "%d:%g<-%d" k d p) c.conflicts))
    c.reg_sync c.static
    (match c.cutoff with Some x -> string_of_float x | None -> "default")
    c.pad

(* Loops of zero to forty iterations with fractional costs. Each iteration
   conflicts with a probability drawn per case, from never to always, so
   restart counts fall on both sides of the cutoff. A producer is the
   previous iteration (a chain that restarts every time) or any earlier
   one, so it lands before and after the current phase's start. *)
let gen_case =
  QCheck.Gen.(
    let frac = map2 (fun a b -> float_of_int a /. float_of_int b) in
    let* n = frequency [ (1, int_range 0 1); (6, int_range 2 40) ] in
    let* costs = array_repeat n (frac (int_range 0 20) (oneofl [ 1; 2; 4 ])) in
    let* density = oneofl [ 0.0; 0.2; 0.5; 0.85; 1.0 ] in
    let* picks = list_repeat n (float_bound_exclusive 1.0) in
    let* deltas = list_repeat n (frac (int_range 0 10) (oneofl [ 1; 2; 3 ])) in
    let* prods = list_repeat n (pair bool (int_range 0 1_000_000)) in
    let* reg_sync = frequency [ (3, return 0.0); (1, frac (int_range 1 6) (return 2)) ] in
    let* static = frequency [ (4, return false); (1, return true) ] in
    let* cutoff = oneofl [ None; Some 0.25; Some 0.5; Some 0.8 ] in
    let+ pad = int_range 0 3 in
    let conflicts =
      List.concat
        (List.mapi
           (fun k ((pick, d), (chain, r)) ->
             if pick >= density then []
             else
               let prod = if k = 0 then 0 else if chain then k - 1 else r mod k in
               [ (k, d, prod) ])
           (List.combine (List.combine picks deltas) prods))
    in
    { costs; conflicts; reg_sync; static; cutoff; pad })

let reference_input c =
  let conflicts = Hashtbl.create 8 in
  List.iter (fun (k, d, p) -> Hashtbl.replace conflicts k (d, p)) c.conflicts;
  {
    Reference.iter_costs = c.costs;
    conflicts;
    reg_sync_delta = c.reg_sync;
    serial_static = c.static;
  }

(* The same case in caller-owned buffers that run [pad] entries past what
   the model may read, the extra entries holding values that would change
   every result. *)
let array_input c =
  let n = Array.length c.costs and m = List.length c.conflicts in
  let costs = Array.append c.costs (Array.make c.pad 1e9) in
  let iters = Array.make (m + c.pad) 0 and deltas = Array.make (m + c.pad) 1e9 in
  let prods = Array.make (m + c.pad) 0 in
  List.iteri
    (fun j (k, d, p) ->
      iters.(j) <- k;
      deltas.(j) <- d;
      prods.(j) <- p)
    c.conflicts;
  {
    Loopa.Model.iter_costs = costs;
    n_iters = n;
    serial = Array.fold_left ( +. ) 0.0 c.costs;
    slowest = Array.fold_left Float.max 0.0 c.costs;
    conf_iter = iters;
    conf_delta = deltas;
    conf_prod = prods;
    n_conflicts = m;
    reg_sync_delta = c.reg_sync;
    serial_static = c.static;
  }

let bits = Option.map Int64.bits_of_float

let prop_matches_reference =
  QCheck.Test.make ~name:"array models equal the table formulas bit for bit" ~count:2000
    (QCheck.make ~print:print_case gen_case) (fun c ->
      let r = reference_input c and a = array_input c in
      let cutoff = c.cutoff in
      bits (Loopa.Model.doall_cost a) = bits (Reference.doall_cost r)
      && bits (Loopa.Model.pdoall_cost ?cutoff a) = bits (Reference.pdoall_cost ?cutoff r)
      && bits (Loopa.Model.helix_cost a) = bits (Reference.helix_cost r)
      && List.for_all
           (fun m ->
             bits (Loopa.Model.cost ?pdoall_cutoff:cutoff m a)
             = bits (Reference.cost ?pdoall_cutoff:cutoff m r))
           [ Loopa.Config.Doall; Loopa.Config.Pdoall; Loopa.Config.Helix ])

let () =
  Alcotest.run "model"
    [
      ( "unit",
        [
          Alcotest.test_case "doall" `Quick test_doall;
          Alcotest.test_case "pdoall phases" `Quick test_pdoall_phases;
          Alcotest.test_case "pdoall commit satisfies" `Quick test_pdoall_commit_satisfies;
          Alcotest.test_case "pdoall 80% cutoff" `Quick test_pdoall_cutoff;
          Alcotest.test_case "pdoall not monotone in its conflicts" `Quick
            test_pdoall_not_monotone_in_conflicts;
          Alcotest.test_case "helix formula" `Quick test_helix;
          Alcotest.test_case "serial cutoff" `Quick test_model_serial_cutoff;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_pdoall_bounds;
          QCheck_alcotest.to_alcotest prop_helix_at_least_slowest;
          QCheck_alcotest.to_alcotest prop_model_cost_beats_serial;
          QCheck_alcotest.to_alcotest prop_doall_cleanest;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
    ]
