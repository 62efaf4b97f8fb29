(* Guarded parallel DOALL execution (see the .mli). The delegate shards an
   eligible loop invocation across forked pool workers; fork gives every
   shard a copy-on-write snapshot of exact loop-entry state, so a shard
   can only diverge from its serial counterpart by reading an address an
   earlier shard wrote — and the access marks expose exactly that. A
   round runs one pool with a job per shard, so every shard runs in its
   own fresh fork (the pool's contract at [jobs >= tasks]) and its worker
   exits after replying: a worker never cleans its image up for a next
   task. A worker gets its (lo, n) range and hands back its
   [shard_report] as a plain value over the pool's typed wire. The parent
   commits the combined effect only when the cross-shard conflict
   detector comes back clean; anything else (conflict, loss, timeout,
   trap, short shard, overflow) discards every shard result and lets the
   machine run the untouched loop serially. A commit applies the absorbed
   shards' write runs in round and shard order, so when two shards write
   one word, the later shard's write wins, as in serial execution. *)

module C = Loopa.Classify
module Machine = Interp.Machine
module Rvalue = Interp.Rvalue

(* ---- knobs ---- *)

type knobs = {
  jobs : int;
  min_trip : int;
  round_chunk : int;
  max_rounds : int;
  max_shard_writes : int;
  watchdog_s : float option;
  chaos : Exec.Chaos.shard_plan option;
}

let default_knobs =
  {
    jobs = 2;
    min_trip = 64;
    round_chunk = 256;
    max_rounds = 24;
    max_shard_writes = 1_000_000;
    watchdog_s = None;
    chaos = None;
  }

(* ---- per-loop stats / conflict records ---- *)

type loop_stats = {
  st_fname : string;
  st_lid : int;
  st_header : int;
  mutable st_invocations : int;
  mutable st_declined : int;
  mutable st_sharded : int;
  mutable st_committed : int;
  mutable st_rollbacks : int;
  mutable st_conflicts : int;
  mutable st_shard_failures : int;
  mutable st_rounds : int;
  mutable st_shards : int;
  mutable st_par_wall : float;
}

type conflict_record = {
  cf_fingerprint : string;
  cf_fname : string;
  cf_lid : int;
  cf_header : int;
  cf_message : string;
  cf_bundle : string option;
}

(* ---- eligibility plan ---- *)

(* How to seed a header phi for the shard starting at global body index
   [lo]. Affine: entry + step * lo, exact mod 2^64 because the recurrence
   adds the same step every iteration. Invariant: the entry value.
   Reduction: the operation's identity; partials fold at commit. *)
type step_src = Sconst of int64 | Sexpr of Scev.Expr.t

type phi_plan =
  | Paffine of Ir.Types.value * step_src  (* preheader incoming, step *)
  | Pinv of Ir.Types.value
  | Pred_ of Scev.Recurrence.kind

type elig = {
  el_fname : string;
  el_lid : int;
  el_header : int;
  el_pre : int;  (* preheader block id *)
  el_phis : (int * phi_plan) list;
  el_reds : (int * int * Scev.Recurrence.kind * Ir.Types.value) list;
      (* phi, latch def, kind, preheader incoming (the fold's base) *)
  el_dump : int array;  (* in-loop result ids the commit must fix *)
  el_exit : (Ir.Instr.icmp * int64 * int64 * Scev.Expr.t) option;
      (* normalized header compare: op, start, step, invariant bound *)
  el_trip : int64 option;  (* static arrival count *)
  el_logfree : bool;
      (* body provably writes no memory: shards skip access logging and
         ship no write set (a load-only loop cannot conflict) *)
  el_fp : string;  (* quarantine fingerprint *)
}

type t = {
  target : string;
  source : string;
  knobs : knobs;
  quar : Quarantine.t;
  repro_dir : string option;
  elig : (string * int, elig) Hashtbl.t;
  inelig : (string * int, string) Hashtbl.t;
  stats : (string * int, loop_stats) Hashtbl.t;
  small_memo : (string * int, unit) Hashtbl.t;
      (* unknown-trip loops observed to run too few bodies to shard *)
  mutable confl : conflict_record list;
  mutable dispatches : int;  (* pool dispatches = chaos invocation index *)
  c_invocations : Obs.Telemetry.counter;
  c_sharded : Obs.Telemetry.counter;
  c_committed : Obs.Telemetry.counter;
  c_rollbacks : Obs.Telemetry.counter;
  c_conflicts : Obs.Telemetry.counter;
  c_quarantined : Obs.Telemetry.counter;
  c_shards : Obs.Telemetry.counter;
  c_rounds : Obs.Telemetry.counter;
}

let knobs t = t.knobs
let quarantine t = t.quar
let conflicts t = t.confl

(* ---- reduction algebra (integer kinds only) ---- *)

let red_identity (k : Scev.Recurrence.kind) =
  match k with
  | Scev.Recurrence.Sum -> 0L
  | Scev.Recurrence.Prod -> 1L
  | Scev.Recurrence.Band -> -1L
  | Scev.Recurrence.Bor | Scev.Recurrence.Bxor -> 0L
  | Scev.Recurrence.Min -> Int64.max_int
  | Scev.Recurrence.Max -> Int64.min_int
  | Scev.Recurrence.Fsum | Scev.Recurrence.Fprod | Scev.Recurrence.Fmin
  | Scev.Recurrence.Fmax ->
      assert false (* float reductions are never eligible *)

let red_combine (k : Scev.Recurrence.kind) a b =
  match k with
  | Scev.Recurrence.Sum -> Int64.add a b
  | Scev.Recurrence.Prod -> Int64.mul a b
  | Scev.Recurrence.Band -> Int64.logand a b
  | Scev.Recurrence.Bor -> Int64.logor a b
  | Scev.Recurrence.Bxor -> Int64.logxor a b
  | Scev.Recurrence.Min -> if Int64.compare a b <= 0 then a else b
  | Scev.Recurrence.Max -> if Int64.compare a b >= 0 then a else b
  | Scev.Recurrence.Fsum | Scev.Recurrence.Fprod | Scev.Recurrence.Fmin
  | Scev.Recurrence.Fmax ->
      assert false

let int_reduction (k : Scev.Recurrence.kind) =
  match k with
  | Scev.Recurrence.Fsum | Scev.Recurrence.Fprod | Scev.Recurrence.Fmin
  | Scev.Recurrence.Fmax ->
      false
  | _ -> true

(* ---- eligibility scan ---- *)

let ineligible fmt = Printf.ksprintf (fun s -> Error s) fmt

let entry_operand fn phi pre =
  match Ir.Func.kind fn phi with
  | Ir.Instr.Phi inc ->
      Array.fold_left (fun acc (p, v) -> if p = pre then Some v else acc) None inc
  | _ -> None

let body_instr_ids fn li lid =
  let lp = Cfg.Loopinfo.loop li lid in
  Cfg.Loopinfo.Int_set.fold
    (fun bid acc -> acc @ (Ir.Func.block fn bid).Ir.Func.instr_ids)
    lp.Cfg.Loopinfo.body []

(* No allocation (the heap break is not undone by shard rollback), no
   hidden global state, user calls only when pure. Builtin memory effects
   are fine: arrcopy/arrfill report word accesses through the hooks.

   On success, reports whether the body can write memory at all:
   [Ok false] means no store and no write-effect builtin anywhere in the
   body (pure user calls cannot store, by the purity definition) — a
   load-only loop cannot conflict with itself, so its shards skip access
   logging entirely. *)
let check_body ms fn body_ids =
  List.fold_left
    (fun acc id ->
      match acc with
      | Error _ -> acc
      | Ok can_write -> (
          match Ir.Func.kind fn id with
          | Ir.Instr.Alloc _ -> ineligible "allocation in loop body"
          | Ir.Instr.Ret _ | Ir.Instr.Unreachable ->
              ineligible "function exit inside loop body"
          | Ir.Instr.Store _ -> Ok true
          | Ir.Instr.Call (callee, _) -> (
              match Ir.Builtins.find callee with
              | Some s when s.Ir.Builtins.safety = Ir.Builtins.Global_state ->
                  ineligible "global-state builtin %s in loop body" callee
              | Some s ->
                  Ok (can_write || s.Ir.Builtins.mem = Ir.Builtins.Reads_writes)
              | None -> (
                  match Hashtbl.find_opt ms.C.funcs callee with
                  | Some cs when cs.C.pure -> Ok can_write
                  | Some _ -> ineligible "impure call to %s in loop body" callee
                  | None -> ineligible "call to unknown function %s" callee))
          | _ -> Ok can_write))
    (Ok false) body_ids

let rec expr_has_addrec (e : Scev.Expr.t) =
  match e with
  | Scev.Expr.Add_rec _ -> true
  | Scev.Expr.Add ts | Scev.Expr.Mul ts -> List.exists expr_has_addrec ts
  | Scev.Expr.Const _ | Scev.Expr.Unknown _ | Scev.Expr.Self _
  | Scev.Expr.Cannot ->
      false

(* Evaluable loop-invariantly at the preheader: no recurrences, no
   unresolved self references, no failure leaves. *)
let invariant_evaluable scev ~lid e =
  (not (Scev.Expr.contains_self e))
  && (not (Scev.Expr.contains_cannot e))
  && (not (expr_has_addrec e))
  && Scev.Analysis.is_invariant scev e ~lid

let plan_phi fn scev ~lid ~header ~pre (pi : C.phi_info) :
    (phi_plan * (int * Scev.Recurrence.kind) option, string) result =
  let phi = pi.C.phi_id in
  match entry_operand fn phi pre with
  | None -> ineligible "phi %d has no preheader incoming" phi
  | Some entryv -> (
      match pi.C.cls with
      | C.Non_computable -> ineligible "non-computable phi %d" phi
      | C.Reduction k -> (
          if not (int_reduction k) then
            ineligible "float reduction phi %d (reassociation breaks byte-identity)"
              phi
          else
            match pi.C.latch_def with
            | None -> ineligible "reduction phi %d without latch def" phi
            | Some latch -> Ok (Pred_ k, Some (latch, k)))
      | C.Computable -> (
          match Scev.Analysis.classify_header_phi scev phi with
          | Scev.Analysis.Computable_shifted _ ->
              ineligible "shifted-computable phi %d" phi
          | Scev.Analysis.Non_computable -> ineligible "non-computable phi %d" phi
          | Scev.Analysis.Computable e -> (
              match Scev.Expr.simplify e with
              (* [Add_rec.loop] carries the header block id, not the lid *)
              | Scev.Expr.Add_rec { start = _; step; loop } when loop = header
                -> (
                  if Ir.Func.instr_ty fn phi <> Some Ir.Types.I64 then
                    ineligible "non-integer affine phi %d" phi
                  else
                    match Scev.Expr.simplify step with
                    | Scev.Expr.Const s -> Ok (Paffine (entryv, Sconst s), None)
                    | s when invariant_evaluable scev ~lid s ->
                        Ok (Paffine (entryv, Sexpr s), None)
                    | _ -> ineligible "phi %d steps by a non-invariant amount" phi)
              | e when invariant_evaluable scev ~lid e -> Ok (Pinv entryv, None)
              | _ -> ineligible "phi %d follows a nested or polynomial recurrence" phi)))

(* Everything data-dependent on a reduction's running value must stay
   inside the accumulation chain: a tainted branch, store, call or
   out-of-loop use would make control flow, memory effects or live state
   depend on the running value — which differs under identity-seeded
   partial accumulation even though the folded result does not. *)
let taint_check fn ~header body_ids reds chains =
  if reds = [] then Ok ()
  else begin
    let allowed = Hashtbl.create 32 in
    List.iter
      (fun (phi, latch, _, _) ->
        Hashtbl.replace allowed phi ();
        Hashtbl.replace allowed latch ())
      reds;
    List.iter (fun id -> Hashtbl.replace allowed id ()) chains;
    let tainted = Hashtbl.create 32 in
    List.iter (fun (phi, _, _, _) -> Hashtbl.replace tainted phi ()) reds;
    let body = Array.of_list body_ids in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun id ->
          if not (Hashtbl.mem tainted id) then
            let ops = Ir.Instr.operands (Ir.Func.kind fn id) in
            if
              List.exists
                (function
                  | Ir.Types.Reg r -> Hashtbl.mem tainted r
                  | _ -> false)
                ops
            then begin
              Hashtbl.replace tainted id ();
              changed := true
            end)
        body
    done;
    let escape =
      Array.fold_left
        (fun acc id ->
          match acc with
          | Some _ -> acc
          | None ->
              if Hashtbl.mem tainted id && not (Hashtbl.mem allowed id) then
                Some id
              else None)
        None body
    in
    match escape with
    | Some id -> ineligible "reduction value escapes its chain (instr %d)" id
    | None ->
        (* The exit arrival executes the header block up to its
           terminator; keeping chain work out of the header means the
           exit shard's latch partial is exactly its completed bodies. *)
        let header_chain =
          List.exists
            (fun id ->
              Hashtbl.mem tainted id
              &&
              match Ir.Func.kind fn id with Ir.Instr.Phi _ -> false | _ -> true)
            (Ir.Func.block fn header).Ir.Func.instr_ids
        in
        if header_chain then
          ineligible "reduction chain instructions in the loop header"
        else begin
          (* out-of-loop uses: only the phi and the latch tip may be live *)
          let in_body = Hashtbl.create 64 in
          Array.iter (fun id -> Hashtbl.replace in_body id ()) body;
          let exit_ok r =
            List.exists (fun (phi, latch, _, _) -> r = phi || r = latch) reds
          in
          let bad =
            Ir.Func.fold_instrs
              (fun acc i ->
                match acc with
                | Some _ -> acc
                | None ->
                    if Hashtbl.mem in_body i.Ir.Instr.id then None
                    else
                      List.fold_left
                        (fun a v ->
                          match (a, v) with
                          | Some _, _ -> a
                          | None, Ir.Types.Reg r
                            when Hashtbl.mem tainted r && not (exit_ok r) ->
                              Some i.Ir.Instr.id
                          | None, _ -> None)
                        None
                        (Ir.Instr.operands i.Ir.Instr.kind))
              None fn
          in
          match bad with
          | Some id ->
              ineligible "reduction intermediate is live outside the loop (instr %d)"
                id
          | None -> Ok ()
        end
  end

(* Reduction loops additionally need every exit to leave from the header:
   a mid-body exit could strand a partially-accumulated iteration the
   commit fold cannot see. *)
let check_red_exits li lid reds =
  if reds = [] then Ok ()
  else
    let lp = Cfg.Loopinfo.loop li lid in
    let bad =
      List.find_opt
        (fun (from_, _) -> from_ <> lp.Cfg.Loopinfo.header)
        (Cfg.Loopinfo.exit_edges li lid)
    in
    match bad with
    | Some (from_, _) ->
        ineligible "reduction loop exits from non-header block %d" from_
    | None -> Ok ()

let exit_info scev fn li lid =
  match Scev.Trip_count.header_compare fn li scev lid with
  | Some (op, (start, step), bound) ->
      let bound = Scev.Expr.simplify bound in
      if invariant_evaluable scev ~lid bound then Some (op, start, step, bound)
      else None
  | None -> None

let scan_loop ~source ms (fs : C.func_static) scev (ls : C.loop_static) :
    (elig, string) result =
  let fn = fs.C.fn and li = fs.C.li in
  let lid = ls.C.lid in
  if not (Cfg.Loopinfo.is_canonical li lid) then
    ineligible "loop is not in canonical form"
  else
    match Cfg.Loopinfo.preheader li lid with
    | None -> ineligible "loop has no preheader"
    | Some pre -> (
        let body_ids = body_instr_ids fn li lid in
        match check_body ms fn body_ids with
        | Error e -> Error e
        | Ok can_write -> (
            (* every header phi needs a seeding plan *)
            let phis = Ir.Func.phis fn ls.C.header in
            let infos = ls.C.phis in
            let plan =
              List.fold_left
                (fun acc (p : Ir.Instr.t) ->
                  match acc with
                  | Error _ -> acc
                  | Ok (plans, reds, chains) -> (
                      let info =
                        Array.to_list infos
                        |> List.find_opt (fun pi -> pi.C.phi_id = p.Ir.Instr.id)
                      in
                      match info with
                      | None -> ineligible "unclassified header phi %d" p.Ir.Instr.id
                      | Some pi -> (
                          match
                            plan_phi fn scev ~lid ~header:ls.C.header ~pre pi
                          with
                          | Error e -> Error e
                          | Ok (pl, red) ->
                              let plans = (p.Ir.Instr.id, pl) :: plans in
                              let reds, chains =
                                match red with
                                | None -> (reds, chains)
                                | Some (latch, k) -> (
                                    match
                                      ( Scev.Recurrence.detect fn li p.Ir.Instr.id,
                                        entry_operand fn p.Ir.Instr.id pre )
                                    with
                                    | Some d, Some ev ->
                                        ( (p.Ir.Instr.id, latch, k, ev) :: reds,
                                          d.Scev.Recurrence.chain @ chains )
                                    | _ -> (reds, chains))
                              in
                              Ok (plans, reds, chains))))
                (Ok ([], [], []))
                phis
            in
            match plan with
            | Error e -> Error e
            | Ok (plans, reds, chains) -> (
                (* a reduction the descriptor no longer recognizes would
                   have slipped past the chain collection *)
                let red_phis =
                  List.filter
                    (fun (_, pl) -> match pl with Pred_ _ -> true | _ -> false)
                    plans
                in
                if List.length red_phis <> List.length reds then
                  ineligible "reduction descriptor no longer matches"
                else
                  match
                    ( taint_check fn ~header:ls.C.header body_ids reds chains,
                      check_red_exits li lid reds )
                  with
                  | Error e, _ | _, Error e -> Error e
                  | Ok (), Ok () ->
                      let dump =
                        List.filter
                          (fun id ->
                            Ir.Instr.has_result (Ir.Func.kind fn id)
                            && Ir.Func.instr_ty fn id <> None)
                          body_ids
                        |> List.sort_uniq compare |> Array.of_list
                      in
                      Ok
                        {
                          el_fname = fs.C.fname;
                          el_lid = lid;
                          el_header = ls.C.header;
                          el_pre = pre;
                          el_phis = List.rev plans;
                          el_reds = List.rev reds;
                          el_dump = dump;
                          el_exit = exit_info scev fn li lid;
                          el_trip = ls.C.trip;
                          el_logfree = not can_write;
                          el_fp =
                            Quarantine.fingerprint ~fname:fs.C.fname
                              ~header:ls.C.header ~source;
                        })))

let create ?(knobs = default_knobs) ?quarantine:(quar = Quarantine.create ())
    ?repro_dir ~target ~source (ms : C.module_static) : t =
  let t =
    {
      target;
      source;
      knobs;
      quar;
      repro_dir;
      elig = Hashtbl.create 16;
      inelig = Hashtbl.create 16;
      stats = Hashtbl.create 16;
      small_memo = Hashtbl.create 16;
      confl = [];
      dispatches = 0;
      c_invocations = Obs.Telemetry.counter "parrun.invocations";
      c_sharded = Obs.Telemetry.counter "parrun.sharded";
      c_committed = Obs.Telemetry.counter "parrun.committed";
      c_rollbacks = Obs.Telemetry.counter "parrun.rollbacks";
      c_conflicts = Obs.Telemetry.counter "parrun.conflicts";
      c_quarantined = Obs.Telemetry.counter "parrun.quarantined";
      c_shards = Obs.Telemetry.counter "parrun.shards";
      c_rounds = Obs.Telemetry.counter "parrun.rounds";
    }
  in
  Hashtbl.iter
    (fun fname (fs : C.func_static) ->
      let scev = lazy (Scev.Analysis.create fs.C.fn fs.C.li) in
      Array.iter
        (fun (ls : C.loop_static) ->
          if ls.C.dep.Deptest.Analysis.verdict = Deptest.Analysis.Proven_doall
          then
            match scan_loop ~source ms fs (Lazy.force scev) ls with
            | Ok el -> Hashtbl.replace t.elig (fname, ls.C.lid) el
            | Error why -> Hashtbl.replace t.inelig (fname, ls.C.lid) why)
        fs.C.loops)
    ms.C.funcs;
  t

let stats_for t (el : elig) =
  let key = (el.el_fname, el.el_lid) in
  match Hashtbl.find_opt t.stats key with
  | Some st -> st
  | None ->
      let st =
        {
          st_fname = el.el_fname;
          st_lid = el.el_lid;
          st_header = el.el_header;
          st_invocations = 0;
          st_declined = 0;
          st_sharded = 0;
          st_committed = 0;
          st_rollbacks = 0;
          st_conflicts = 0;
          st_shard_failures = 0;
          st_rounds = 0;
          st_shards = 0;
          st_par_wall = 0.;
        }
      in
      Hashtbl.replace t.stats key st;
      st

let loop_stats t =
  (* one row per eligible loop, entered or not *)
  Hashtbl.iter (fun _ el -> ignore (stats_for t el)) t.elig;
  Hashtbl.fold (fun _ st acc -> st :: acc) t.stats []
  |> List.sort (fun a b -> compare (a.st_fname, a.st_lid) (b.st_fname, b.st_lid))

let eligibility t =
  let rows =
    Hashtbl.fold (fun k el acc -> (k, Ok el.el_fp) :: acc) t.elig []
  in
  let rows =
    Hashtbl.fold (fun k why acc -> (k, Error why) :: acc) t.inelig rows
  in
  List.sort (fun (a, _) (b, _) -> compare a b) rows

(* ---- per-invocation resolved seeds ---- *)

type resolved =
  | Rint of int64 * int64  (* affine: entry value, step *)
  | Rconst of Rvalue.rv  (* invariant entry value *)
  | Rident of Scev.Recurrence.kind

let seed_value (res : resolved) lo : Rvalue.rv =
  match res with
  | Rint (base, step) ->
      Rvalue.Vint (Int64.add base (Int64.mul step (Int64.of_int lo)))
  | Rconst v -> v
  | Rident k -> Rvalue.Vint (red_identity k)

(* Resolve every seeding plan against the live frame. None (decline to
   serial) if any value the plans need is not what the plans assumed. *)
let resolve_seeds m (entry : Machine.loop_entry) (el : elig) :
    ((int * resolved) list * (int * int * Scev.Recurrence.kind * int64) list)
    option =
  let eval v = Machine.eval_operand m entry.Machine.le_frame v in
  let eval_expr e =
    Scev.Expr.eval ~env:(fun v -> Rvalue.as_int (eval v)) ~iters:[] e
  in
  try
    let seeds =
      List.map
        (fun (phi, pl) ->
          match pl with
          | Paffine (entryv, src) ->
              let base = Rvalue.as_int (eval entryv) in
              let step =
                match src with Sconst s -> s | Sexpr e -> eval_expr e
              in
              (phi, Rint (base, step))
          | Pinv entryv -> (phi, Rconst (eval entryv))
          | Pred_ k -> (phi, Rident k))
        el.el_phis
    in
    let raccs =
      List.map
        (fun (phi, latch, k, entryv) ->
          (phi, latch, k, Rvalue.as_int (eval entryv)))
        el.el_reds
    in
    Some (seeds, raccs)
  with Rvalue.Runtime_error _ | Invalid_argument _ -> None

(* Completed loop bodies this invocation will run, when computable at the
   preheader: the static trip, else the normalized header compare
   evaluated against the live frame. Arrivals = bodies + 1. *)
let dyn_bodies m (entry : Machine.loop_entry) (el : elig) : int64 option =
  match el.el_trip with
  | Some arrivals -> Some (Int64.sub arrivals 1L)
  | None -> (
      match el.el_exit with
      | None -> None
      | Some (op, start, step, bound) -> (
          let eval v =
            Rvalue.as_int (Machine.eval_operand m entry.Machine.le_frame v)
          in
          try
            match
              Scev.Trip_count.count_affine ~start ~step
                ~bound:(Scev.Expr.eval ~env:eval ~iters:[] bound)
                ~op
            with
            | Some arrivals when arrivals >= 1L -> Some (Int64.sub arrivals 1L)
            | _ -> None
          with Rvalue.Runtime_error _ | Invalid_argument _ -> None))

(* ---- the worker side of a shard task ---- *)

type shard_report = {
  sr_status : string;  (* ok | trap | budget | error | overflow *)
  sr_msg : string;
  sr_iters : int;
  sr_exit : (int * int) option;
  sr_clock : int;
  sr_accesses : int;
  sr_output : string;
  sr_regs : (int * Rvalue.rv) list;
  sr_writes : (int * Rvalue.rv array) list;
  sr_rd : Conflict.ranges;
}

(* The bits of a word's mark byte in a shard's log. *)
let written = 1 (* the shard wrote it *)
let exposed = 2 (* the shard read it before writing it *)

(* Runs in a forked worker that exits once it has replied (one task per
   fork), so nothing it does to its image needs undoing. The image is a
   snapshot of exact loop-entry state; the write runs of earlier rounds
   are applied first, in round and shard order, so later rounds see
   committed effects. The access hook only sets a word's mark bits and
   counts first writes against the cap; after the range, one scan of the
   marks per bit yields the write runs (with their final values) and the
   exposed reads, in address order. A word read before it is written
   carries both bits and lands in both. *)
let worker_task m (el : elig) (entry : Machine.loop_entry)
    (seeds : (int * resolved) list)
    (pre_writes : (int * Rvalue.rv array) list list) ~max_writes
    ((lo, n) : int * int) : shard_report =
  let max_iters = if n < 0 then max_int / 2 else n in
  List.iter
    (List.iter (fun (a, vs) ->
         Array.iteri (fun k v -> Machine.write_word m (a + k) v) vs))
    pre_writes;
  let words = Machine.mem_words m in
  let marks = Bytes.make words '\000' in
  let nwritten = ref 0 in
  let overflowed = ref false in
  let hooks =
    (* a provably store-free body needs no logging at all: nothing to
       ship, nothing that could conflict *)
    if el.el_logfree then Interp.Events.no_hooks
    else
      {
        Interp.Events.no_hooks with
        Interp.Events.on_mem_access =
          (fun ~addr ~is_write ~clock:_ ->
            (* an address off the image traps in the access itself *)
            if addr >= 0 && addr < words then begin
              let b = Char.code (Bytes.unsafe_get marks addr) in
              if is_write then begin
                if b land written = 0 then begin
                  Bytes.unsafe_set marks addr (Char.unsafe_chr (b lor written));
                  incr nwritten;
                  (* abort the shard as soon as the cap is blown — running
                     to completion only delays the inevitable rollback *)
                  if !nwritten > max_writes then begin
                    overflowed := true;
                    raise
                      (Rvalue.Runtime_error "parrun: shard write-set overflow")
                  end
                end
              end
              else if b = 0 then
                Bytes.unsafe_set marks addr (Char.unsafe_chr exposed)
            end);
      }
  in
  let c0 = Machine.clock m in
  let a0 = Machine.mem_accesses m in
  let o0 = Machine.output_length m in
  Machine.set_hooks m hooks;
  let frame = Machine.copy_frame entry.Machine.le_frame in
  let seed = List.map (fun (phi, res) -> (phi, seed_value res lo)) seeds in
  let status = ref "ok" and msg = ref "" in
  let res =
    try
      Some
        (Machine.run_loop_range m ~frame ~header:el.el_header ~pred:el.el_pre
           ~seed ~max_iters)
    with
    | Rvalue.Trap (k, tm) ->
        status := "trap";
        msg := Rvalue.trap_kind_to_string k ^ ": " ^ tm;
        None
    | Rvalue.Budget_stop k ->
        status := "budget";
        msg := Rvalue.budget_kind_to_string k;
        None
    | Rvalue.Runtime_error e ->
        status := "error";
        msg := e;
        None
  in
  if !overflowed then begin
    status := "overflow";
    msg := Printf.sprintf "%d distinct written words" !nwritten
  end;
  let ok = !status = "ok" in
  let iters, exit_ =
    match res with
    | Some rr -> (rr.Machine.rr_iters, rr.Machine.rr_exit)
    | None -> (0, None)
  in
  {
    sr_status = !status;
    sr_msg = !msg;
    sr_iters = iters;
    sr_exit = exit_;
    sr_clock = Machine.clock m - c0;
    sr_accesses = Machine.mem_accesses m - a0;
    sr_output = Machine.output_since m o0;
    sr_regs =
      (if ok then
         Array.to_list el.el_dump |> List.map (fun id -> (id, Machine.frame_reg frame id))
       else []);
    (* a failed shard ends the round's live prefix, so no later shard's
       reads are checked against its writes and nothing of it commits *)
    sr_writes =
      (if ok then
         Conflict.of_marks marks ~bit:written
         |> List.map (fun (a, hi) ->
                (a, Array.init (hi - a) (fun k -> Machine.read_word m (a + k))))
       else []);
    sr_rd = Conflict.of_marks marks ~bit:exposed;
  }

(* ---- conflict bookkeeping ---- *)

let sanitize_name s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    s

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let emit_bundle t (el : elig) msg : string option =
  match t.repro_dir with
  | None -> None
  | Some dir -> (
      try
        mkdir_p dir;
        let b =
          Repro.Bundle.make ~target:t.target ~stage:Loopa.Driver.Parrun
            ~fingerprint:el.el_fp ~message:msg ~source:t.source ()
        in
        let file =
          sanitize_name
            (Printf.sprintf "%s_%s_bb%d" t.target el.el_fname el.el_header)
          ^ ".repro.json"
        in
        let path = Filename.concat dir file in
        Repro.Bundle.save path b;
        Some path
      with Sys_error _ | Unix.Unix_error _ -> None)

let handle_conflict t (st : loop_stats) (el : elig) (c : Conflict.conflict) =
  st.st_conflicts <- st.st_conflicts + 1;
  Obs.Telemetry.add t.c_conflicts 1;
  let detail = Conflict.conflict_to_string c in
  let msg =
    Printf.sprintf
      "guarded DOALL execution of %s loop %d (header bb%d): %s — verdict \
       quarantined, invocation rolled back to serial"
      el.el_fname el.el_lid el.el_header detail
  in
  let added =
    Quarantine.add t.quar
      {
        Quarantine.fingerprint = el.el_fp;
        target = t.target;
        fname = el.el_fname;
        lid = el.el_lid;
        header = el.el_header;
        reason = detail;
      }
  in
  if added then Obs.Telemetry.add t.c_quarantined 1;
  let bundle = if added then emit_bundle t el msg else None in
  t.confl <-
    t.confl
    @ [
        {
          cf_fingerprint = el.el_fp;
          cf_fname = el.el_fname;
          cf_lid = el.el_lid;
          cf_header = el.el_header;
          cf_message = msg;
          cf_bundle = bundle;
        };
      ]

(* ---- the sharded invocation ---- *)

type round_verdict =
  | Rcommit of int * int * (int * Rvalue.rv) list
      (* exit pred, exit target, final regs *)
  | Rcontinue
  | Rconflict of Conflict.conflict
  | Rfail of string

let shard_invocation t m (st : loop_stats) (el : elig)
    (entry : Machine.loop_entry) seeds raccs (bodies : int option) :
    Machine.loop_commit option =
  st.st_sharded <- st.st_sharded + 1;
  Obs.Telemetry.add t.c_sharded 1;
  let fuel_left = Machine.fuel m - Machine.clock m in
  let s = t.knobs.jobs in
  (* invocation-scoped accumulators: effects of absorbed rounds; the
     absorbed shards' write runs newest first *)
  let acc_writes : (int * Rvalue.rv array) list list ref = ref [] in
  let acc_out = Buffer.create 256 in
  let acc_clock = ref 0 in
  let acc_acc = ref 0 in
  let total_bodies = ref 0 in
  let base = ref 0 in
  let raccs =
    List.map (fun (phi, latch, k, a0) -> (phi, latch, k, ref a0)) raccs
  in
  let deadline =
    match t.knobs.watchdog_s with
    | Some _ as d -> d
    | None -> if t.knobs.chaos <> None then Some 5.0 else None
  in
  let run_round (tasks : (int * int) array) : round_verdict =
    let seq = t.dispatches in
    t.dispatches <- t.dispatches + 1;
    st.st_rounds <- st.st_rounds + 1;
    Obs.Telemetry.add t.c_rounds 1;
    let nshards = Array.length tasks in
    st.st_shards <- st.st_shards + nshards;
    Obs.Telemetry.add t.c_shards nshards;
    let chaos =
      Option.map
        (fun plan ->
          Exec.Chaos.explicit
            (List.filter_map
               (fun sh ->
                 Option.map
                   (fun f -> (sh, f))
                   (Exec.Chaos.shard_fault plan ~invocation:seq ~shard:sh))
               (List.init nshards Fun.id)))
        t.knobs.chaos
    in
    let work =
      worker_task m el entry seeds (List.rev !acc_writes)
        ~max_writes:t.knobs.max_shard_writes
    in
    (* one job per shard: each shard runs in its own fresh fork, which
       [worker_task] relies on *)
    let outs =
      Exec.Pool.run ~jobs:nshards
        ~worker_init:(fun () -> Machine.set_delegate m None)
        ?task_deadline_s:deadline ?chaos ~work tasks
    in
    let reports =
      Array.map
        (function
          | Some (Exec.Pool.Done r) -> Some r
          | Some (Exec.Pool.Lost _) | Some (Exec.Pool.Timed_out _) | None ->
              None)
        outs
    in
    (* Shards past the first exiting / failing shard ran iterations the
       serial execution never reaches: they are discarded unconditionally
       and their accesses are not conflict evidence. *)
    let limit = ref (nshards - 1) in
    for sh = nshards - 1 downto 0 do
      match reports.(sh) with
      | None -> limit := sh
      | Some r -> if r.sr_status <> "ok" || r.sr_exit <> None then limit := sh
    done;
    for sh = 0 to !limit do
      match reports.(sh) with
      | None -> st.st_shard_failures <- st.st_shard_failures + 1
      | Some r ->
          if r.sr_status <> "ok" then
            st.st_shard_failures <- st.st_shard_failures + 1
    done;
    let live = !limit + 1 in
    let writes =
      Array.init nshards (fun i ->
          if i <= !limit then
            match reports.(i) with
            | Some r ->
                List.map (fun (a, vs) -> (a, a + Array.length vs)) r.sr_writes
            | None -> []
          else [])
    in
    let reads =
      Array.init nshards (fun i ->
          if i <= !limit then
            match reports.(i) with Some r -> r.sr_rd | None -> []
          else [])
    in
    match Conflict.detect ~writes ~reads ~n:live with
    | Some c -> Rconflict c
    | None -> (
        (* commit validity over shards 0..limit *)
        let fail = ref None in
        for sh = 0 to !limit do
          if !fail = None then
            match reports.(sh) with
            | None -> fail := Some (Printf.sprintf "shard %d lost or timed out" sh)
            | Some r ->
                if r.sr_status <> "ok" then
                  fail :=
                    Some
                      (Printf.sprintf "shard %d %s: %s" sh r.sr_status r.sr_msg)
                else if sh < !limit || r.sr_exit = None then begin
                  let _, n = tasks.(sh) in
                  if n < 0 then
                    fail :=
                      Some (Printf.sprintf "unbounded shard %d did not exit" sh)
                  else if r.sr_iters <> n then
                    fail :=
                      Some
                        (Printf.sprintf "shard %d ran %d of %d bodies" sh
                           r.sr_iters n)
                end
        done;
        match !fail with
        | Some reason -> Rfail reason
        | None -> (
            let absorb_effects (r : shard_report) =
              Buffer.add_string acc_out r.sr_output;
              acc_clock := !acc_clock + r.sr_clock;
              acc_acc := !acc_acc + r.sr_accesses;
              acc_writes := r.sr_writes :: !acc_writes
            in
            let absorb_full (r : shard_report) =
              absorb_effects r;
              total_bodies := !total_bodies + r.sr_iters;
              List.iter
                (fun (_, latch, k, acc) ->
                  match List.assoc_opt latch r.sr_regs with
                  | Some v -> acc := red_combine k !acc (Rvalue.as_int v)
                  | None -> raise (Rvalue.Runtime_error "latch missing from dump"))
                raccs
            in
            let get sh =
              match reports.(sh) with Some r -> r | None -> assert false
            in
            match (get !limit).sr_exit with
            | None ->
                (* every shard full and clean: absorb the round, keep going *)
                for sh = 0 to !limit do
                  absorb_full (get sh)
                done;
                Rcontinue
            | Some (ep, et) ->
                for sh = 0 to !limit - 1 do
                  absorb_full (get sh)
                done;
                let rk = get !limit in
                (* Reduction exit values: fold the accumulated prefix into
                   the exit shard's identity-seeded partials. A zero-body
                   exit shard never ran the latch tip (chain work is barred
                   from the header), so its latch dump is the stale
                   preheader copy: the serial value there is the full
                   accumulation — or the stale copy itself when the loop
                   ran no bodies at all. *)
                let overrides =
                  List.concat_map
                    (fun (phi, latch, k, acc) ->
                      let pv =
                        match List.assoc_opt phi rk.sr_regs with
                        | Some v -> red_combine k !acc (Rvalue.as_int v)
                        | None ->
                            raise (Rvalue.Runtime_error "phi missing from dump")
                      in
                      let lv =
                        if rk.sr_iters > 0 then
                          match List.assoc_opt latch rk.sr_regs with
                          | Some v -> Some (red_combine k !acc (Rvalue.as_int v))
                          | None ->
                              raise
                                (Rvalue.Runtime_error "latch missing from dump")
                        else if !total_bodies > 0 then Some !acc
                        else None
                      in
                      (phi, Rvalue.Vint pv)
                      ::
                      (match lv with
                      | Some l -> [ (latch, Rvalue.Vint l) ]
                      | None -> []))
                    raccs
                in
                let final_regs =
                  List.map
                    (fun (id, v) ->
                      match List.assoc_opt id overrides with
                      | Some o -> (id, o)
                      | None -> (id, v))
                    rk.sr_regs
                in
                absorb_effects rk;
                total_bodies := !total_bodies + rk.sr_iters;
                Rcommit (ep, et, final_regs)))
  in
  let result =
    match bodies with
    | Some n ->
        (* known trip: one balanced round; the last shard is unbounded so
           it absorbs the exit arrival (and any estimate slack) *)
        let per = max 1 ((n + s - 1) / s) in
        let nb = max 1 ((n + per - 1) / per) in
        let tasks =
          Array.init nb (fun i ->
              let lo = i * per in
              if i = nb - 1 then (lo, -1) else (lo, per))
        in
        run_round tasks
    | None ->
        (* unknown trip: geometric rounds until a shard exits *)
        let rec go round chunk =
          if round >= t.knobs.max_rounds then
            Rfail "round budget exhausted before the loop exited"
          else if !acc_clock >= fuel_left then Rfail "fuel exhausted mid-loop"
          else
            let tasks = Array.init s (fun i -> (!base + (i * chunk), chunk)) in
            match run_round tasks with
            | Rcontinue ->
                base := !base + (s * chunk);
                go (round + 1) (min (chunk * 4) 1_000_000)
            | verdict -> verdict
        in
        go 0 t.knobs.round_chunk
  in
  (* unknown-trip loops that turn out tiny are not worth forking again *)
  if bodies = None && !total_bodies < t.knobs.min_trip then
    Hashtbl.replace t.small_memo (el.el_fname, el.el_lid) ();
  match result with
  | Rcommit (ep, et, final_regs) when !acc_clock <= fuel_left ->
      st.st_committed <- st.st_committed + 1;
      Obs.Telemetry.add t.c_committed 1;
      Some
        {
          Machine.lc_exit_pred = ep;
          lc_exit_target = et;
          lc_clock = !acc_clock;
          lc_accesses = !acc_acc;
          lc_regs = final_regs;
          lc_writes = List.concat (List.rev !acc_writes);
          lc_output = Buffer.contents acc_out;
        }
  | Rcommit _ ->
      (* the committed lump would blow the fuel budget: the serial run
         truncates mid-loop, which only serial execution can reproduce *)
      st.st_rollbacks <- st.st_rollbacks + 1;
      Obs.Telemetry.add t.c_rollbacks 1;
      None
  | Rcontinue ->
      st.st_rollbacks <- st.st_rollbacks + 1;
      Obs.Telemetry.add t.c_rollbacks 1;
      None
  | Rconflict c ->
      handle_conflict t st el c;
      st.st_rollbacks <- st.st_rollbacks + 1;
      Obs.Telemetry.add t.c_rollbacks 1;
      None
  | Rfail _reason ->
      st.st_rollbacks <- st.st_rollbacks + 1;
      Obs.Telemetry.add t.c_rollbacks 1;
      None

let delegate t m (entry : Machine.loop_entry) : Machine.loop_commit option =
  match Hashtbl.find_opt t.elig (entry.Machine.le_fname, entry.Machine.le_lid) with
  | None -> None
  | Some el -> (
      let st = stats_for t el in
      st.st_invocations <- st.st_invocations + 1;
      Obs.Telemetry.add t.c_invocations 1;
      let decline () =
        st.st_declined <- st.st_declined + 1;
        None
      in
      if t.knobs.jobs < 2 then decline ()
      else if Quarantine.mem t.quar el.el_fp then decline ()
      else if entry.Machine.le_pred <> el.el_pre then decline ()
      else if Hashtbl.mem t.small_memo (el.el_fname, el.el_lid) then decline ()
      else
        let t0 = Unix.gettimeofday () in
        let finish r =
          st.st_par_wall <- st.st_par_wall +. (Unix.gettimeofday () -. t0);
          r
        in
        match resolve_seeds m entry el with
        | None -> finish (decline ())
        | Some (seeds, raccs) -> (
            let fuel_left = Machine.fuel m - Machine.clock m in
            match dyn_bodies m entry el with
            | Some n
              when Int64.compare n (Int64.of_int t.knobs.min_trip) < 0 ->
                finish (decline ())
            | Some n when Int64.compare n (Int64.of_int fuel_left) >= 0 ->
                (* the loop cannot finish within fuel; only serial
                   execution reproduces the truncation *)
                finish (decline ())
            | bodies -> (
                let bodies = Option.map Int64.to_int bodies in
                try finish (shard_invocation t m st el entry seeds raccs bodies)
                with
                | Rvalue.Runtime_error _ | Failure _ | Not_found
                | Invalid_argument _
                | Unix.Unix_error _
                ->
                  (* parent-side misbehavior is never fatal: fall back *)
                  st.st_rollbacks <- st.st_rollbacks + 1;
                  Obs.Telemetry.add t.c_rollbacks 1;
                  finish None)))

let install t m = Machine.set_delegate m (Some (delegate t))
