(* Scalar-evolution expressions. An [Add_rec] {start; step; loop} denotes the
   sequence x_0 = start, x_{k+1} = x_k + step(k) over iterations of [loop]
   (identified by its header block id) — affine when [step] is invariant,
   polynomial when [step] is itself an add-recurrence of the same loop
   (mutual induction variables). [Self] is a transient marker used while
   solving a header phi's own recurrence and never escapes the analysis. *)

type t =
  | Const of int64
  | Unknown of Ir.Types.value (* opaque leaf; invariance judged by def site *)
  | Self of int (* instruction id of the phi being solved *)
  | Add of t list
  | Mul of t list
  | Add_rec of { start : t; step : t; loop : int }
  | Cannot

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> Int64.equal x y
  | Unknown x, Unknown y -> Ir.Types.equal_value x y
  | Self x, Self y -> x = y
  | Add xs, Add ys | Mul xs, Mul ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Add_rec x, Add_rec y -> equal x.start y.start && equal x.step y.step && x.loop = y.loop
  | Cannot, Cannot -> true
  | (Const _ | Unknown _ | Self _ | Add _ | Mul _ | Add_rec _ | Cannot), _ -> false

let rec contains_self e =
  match e with
  | Self _ -> true
  | Const _ | Unknown _ | Cannot -> false
  | Add ts | Mul ts -> List.exists contains_self ts
  | Add_rec { start; step; _ } -> contains_self start || contains_self step

let rec contains_cannot e =
  match e with
  | Cannot -> true
  | Const _ | Unknown _ | Self _ -> false
  | Add ts | Mul ts -> List.exists contains_cannot ts
  | Add_rec { start; step; _ } -> contains_cannot start || contains_cannot step

(* Total order used to canonicalize term lists so that structurally equal
   expressions compare equal after simplification. *)
let rec compare_expr a b =
  let rank = function
    | Const _ -> 0
    | Unknown _ -> 1
    | Self _ -> 2
    | Add _ -> 3
    | Mul _ -> 4
    | Add_rec _ -> 5
    | Cannot -> 6
  in
  match (a, b) with
  | Const x, Const y -> Int64.compare x y
  | Unknown x, Unknown y -> Stdlib.compare x y
  | Self x, Self y -> Int.compare x y
  | Add xs, Add ys | Mul xs, Mul ys -> List.compare compare_expr xs ys
  | Add_rec x, Add_rec y ->
      let c = Int.compare x.loop y.loop in
      if c <> 0 then c
      else
        let c = compare_expr x.start y.start in
        if c <> 0 then c else compare_expr x.step y.step
  | Cannot, Cannot -> 0
  | _ -> Int.compare (rank a) (rank b)

(* Normalization, one bottom-up pass. Kept conservative: only rewrites that
   are sound without knowing loop-invariance of unknowns (constants are
   invariant everywhere; add-recurrences of the same loop combine
   pointwise). *)
let rec simplify_pass e =
  match e with
  | Const _ | Unknown _ | Self _ | Cannot -> e
  | Add ts -> simplify_add (List.map simplify_pass ts)
  | Mul ts -> simplify_mul (List.map simplify_pass ts)
  | Add_rec { start; step; loop } -> (
      let start = simplify_pass start and step = simplify_pass step in
      (* a zero-step recurrence is just its start value — but only when the
         start does not itself vary with this loop (it always is invariant in
         exprs produced by the analysis; arbitrary exprs need the check) *)
      match step with
      | Const 0L when not (mentions_loop loop start) -> start
      | _ -> Add_rec { start; step; loop })

and mentions_loop loop e =
  match e with
  | Const _ | Unknown _ | Cannot -> false
  | Self _ -> true
  | Add ts | Mul ts -> List.exists (mentions_loop loop) ts
  | Add_rec { start; step; loop = l } ->
      l = loop || mentions_loop loop start || mentions_loop loop step

and simplify_add ts =
  let flat =
    List.concat_map (fun t -> match t with Add ts' -> ts' | t -> [ t ]) ts
  in
  if List.exists (fun t -> t = Cannot) flat then Cannot
  else begin
    let consts, rest = List.partition (function Const _ -> true | _ -> false) flat in
    let csum =
      List.fold_left (fun acc t -> match t with Const c -> Int64.add acc c | _ -> acc) 0L consts
    in
    (* Group add-recurrences by loop and merge them pointwise. *)
    let recs, others =
      List.partition (function Add_rec _ -> true | _ -> false) rest
    in
    let merged =
      let tbl = Hashtbl.create 4 in
      List.iter
        (fun t ->
          match t with
          | Add_rec { start; step; loop } ->
              let s0, t0 =
                Option.value ~default:(Const 0L, Const 0L) (Hashtbl.find_opt tbl loop)
              in
              Hashtbl.replace tbl loop (simplify_add [ s0; start ], simplify_add [ t0; step ])
          | _ -> ())
        recs;
      Hashtbl.fold
        (fun loop (start, step) acc -> Add_rec { start; step; loop } :: acc)
        tbl []
      |> List.sort compare_expr
    in
    (* Fold the constant part into the first add-rec's start when possible
       (a constant is invariant in every loop). *)
    let merged, csum =
      match merged with
      | Add_rec { start; step; loop } :: rest when csum <> 0L ->
          (Add_rec { start = simplify_add [ start; Const csum ]; step; loop } :: rest, 0L)
      | _ -> (merged, csum)
    in
    let terms =
      (if csum = 0L then [] else [ Const csum ]) @ List.sort compare_expr others @ merged
    in
    match terms with [] -> Const 0L | [ t ] -> t | ts -> Add ts
  end

and simplify_mul ts =
  let flat =
    List.concat_map (fun t -> match t with Mul ts' -> ts' | t -> [ t ]) ts
  in
  if List.exists (fun t -> t = Cannot) flat then Cannot
  else begin
    let consts, rest = List.partition (function Const _ -> true | _ -> false) flat in
    let cprod =
      List.fold_left (fun acc t -> match t with Const c -> Int64.mul acc c | _ -> acc) 1L consts
    in
    if cprod = 0L then Const 0L
    else
      match (rest, cprod) with
      | [], c -> Const c
      | [ t ], 1L -> t
      (* Distribute a constant over a sum or an add-rec (linearity). *)
      | [ Add ts' ], c -> simplify_add (List.map (fun t -> simplify_mul [ Const c; t ]) ts')
      | [ Add_rec { start; step; loop } ], c ->
          Add_rec
            {
              start = simplify_mul [ Const c; start ];
              step = simplify_mul [ Const c; step ];
              loop;
            }
      | ts', 1L -> Mul (List.sort compare_expr ts')
      | ts', c -> Mul (Const c :: List.sort compare_expr ts')
  end

(* One pass can leave work for the next: add-recurrences whose steps
   cancel merge into a zero-step recurrence that only the next pass
   collapses, and the sum such a collapse exposes is flattened only on the
   pass after. Re-simplify until a pass changes nothing, so simplify is
   idempotent. *)
let rec simplify e =
  let s = simplify_pass e in
  if equal s e then s else simplify s

let add a b = simplify (Add [ a; b ])
let sub a b = simplify (Add [ a; Mul [ Const (-1L); b ] ])
let mul a b = simplify (Mul [ a; b ])
let neg a = simplify (Mul [ Const (-1L); a ])

(* Evaluation for testing: [iters] maps a loop header to the iteration index
   at which to evaluate; [env] resolves opaque unknowns. Add-recurrences are
   evaluated by literally running the recurrence, which is the semantic
   ground truth the simplifier must preserve. *)
let rec eval ~env ~iters e =
  match e with
  | Const c -> c
  | Unknown v -> env v
  | Self id -> invalid_arg (Printf.sprintf "Expr.eval: unresolved Self %%%d" id)
  | Cannot -> invalid_arg "Expr.eval: Cannot"
  | Add ts -> List.fold_left (fun acc t -> Int64.add acc (eval ~env ~iters t)) 0L ts
  | Mul ts -> List.fold_left (fun acc t -> Int64.mul acc (eval ~env ~iters t)) 1L ts
  | Add_rec { start; step; loop } ->
      let k = Option.value ~default:0 (List.assoc_opt loop iters) in
      let set_iter j = (loop, j) :: List.remove_assoc loop iters in
      let acc = ref (eval ~env ~iters:(set_iter 0) start) in
      for j = 0 to k - 1 do
        acc := Int64.add !acc (eval ~env ~iters:(set_iter j) step)
      done;
      !acc

let rec pp ppf e =
  match e with
  | Const c -> Format.fprintf ppf "%Ld" c
  | Unknown v -> Format.fprintf ppf "%s" (Ir.Pp.value_to_string v)
  | Self id -> Format.fprintf ppf "self(%%%d)" id
  | Cannot -> Format.pp_print_string ppf "<cannot>"
  | Add ts ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " + ") pp)
        ts
  | Mul ts ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " * ") pp)
        ts
  | Add_rec { start; step; loop } ->
      Format.fprintf ppf "{%a,+,%a}<bb%d>" pp start pp step loop

let to_string e = Format.asprintf "%a" pp e
