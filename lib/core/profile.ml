(* The run-time component (paper §III-B): listens to interpreter events and
   builds, per dynamic loop invocation, everything the cost models need:

   - per-iteration start time-stamps (iteration costs);
   - memory RAW conflicts across iterations, with producer/consumer offsets
     normalized per iteration of distance (HELIX deltas);
   - per watched register LCD: hybrid-predictor hit/miss per iteration, and
     producer(def)/consumer(first-use) offsets;
   - the classes of calls observed during any iteration (fn ladder);
   - the invocation tree (parent invocation and parent iteration index).

   WAR/WAW are never recorded: the study assumes lazy versioning with
   in-order commit (paper §II-D).

   The listener's cost follows the work it records. Writes cost one array
   store; a read costs one array load plus a walk over the live invocations
   that started after the word was last written. A predictor bank lives
   only while its invocation does. *)

type reg_track = {
  phi_id : int;
  cls : Classify.phi_class;
  mutable predictor : Predictors.Hybrid.t option;
      (* the bank predicting this LCD; released when the invocation exits *)
  (* def offset (relative to its iteration's start) of the value produced in
     the previous iteration; -1 when unknown *)
  mutable prev_def_rel : int;
  mutable cur_def_rel : int;
  (* pending consumer information for the current iteration *)
  mutable use_seen : bool;
  mutable pending_mispredict : bool;
  mutable pending_iter : int;
  (* aggregates *)
  mutable n_instances : int; (* latch-edge arrivals = predictable instances *)
  mutable n_mispredicts : int;
  mutable max_delta_all : float; (* over all iterations (dep1 sync) *)
  mutable max_delta_mispredict : float; (* over mispredicted iterations *)
  mispredict_iters : int Ir.Vec.t;
}

type inv = {
  inv_id : int;
  fname : string;
  fid : int; (* [fname]'s index in the listener's function table *)
  lid : int;
  parent : int; (* inv_id of enclosing invocation, -1 at top level *)
  parent_iter : int;
  start_clock : int;
  mutable end_clock : int;
  iter_starts : int Ir.Vec.t;
  (* consumer iteration -> (worst stall delta, most recent producer
     iteration). The producer index is what lets Partial-DOALL treat reads of
     already-committed writes as satisfied (paper §III-B). *)
  mem_conflicts : (int, float * int) Hashtbl.t;
  tracks : reg_track array;
  mutable call_mask : int;
  mutable n_mem_deps : int; (* count of cross-iteration RAW manifestations *)
  track_mem : bool;
      (* false when the loop is statically Proven_doall and pruning is on:
         this invocation skips address tracking (it cannot conflict) *)
}

let n_iters inv = Ir.Vec.length inv.iter_starts

let cur_iter inv = n_iters inv - 1

let iter_start inv k = Ir.Vec.get inv.iter_starts k

(* call_mask bits *)
let mask_pure_builtin = 1

let mask_threadsafe_builtin = 2

let mask_unsafe_builtin = 4

let mask_pure_user = 8

let mask_user = 16

(* What the listener needs about a function, resolved once per run so the
   per-event handlers never look anything up by name. *)
type func_ctx = {
  fid : int;
  fs : Classify.func_static;
  call_bit : int; (* call_mask bit of a call to this function *)
  defs : int list array; (* watched def instr id -> the phis it produces *)
  watched : Classify.phi_info array array; (* lid -> the phis tracks follow *)
}

type t = {
  invs : inv Ir.Vec.t;
  mutable stack : inv list; (* innermost first *)
  mutable frames : func_ctx list; (* call stack, innermost first *)
  funcs : (string, func_ctx) Hashtbl.t;
  make_predictor : unit -> Predictors.Hybrid.t; (* predictor bank (ablation) *)
  static_prune : bool; (* honor Proven_doall verdicts when tracking memory *)
  phi_obs : (string * int, int64 * int64) Hashtbl.t;
      (* (fname, phi_id) -> (min, max) integer value observed at any header
         arrival; fed by on_header_phi, validated by Crosscheck.check_ranges
         against the proven static interval *)
  (* Shadow memory for RAW detection: per guest word, the clock of its last
     reported write, 0 if none. It only grows, to the highest address
     written. A write past its end waits in [pending_*] until the next
     access shows the machine did not trap on it, so a wild out-of-bounds
     store never sizes the array. *)
  mutable last_write : int array;
  mutable pending_addr : int;
  mutable pending_clock : int;
}

let dummy_inv =
  {
    inv_id = -1;
    fname = "";
    fid = -1;
    lid = -1;
    parent = -1;
    parent_iter = 0;
    start_clock = 0;
    end_clock = 0;
    iter_starts = Ir.Vec.create ~dummy:0;
    mem_conflicts = Hashtbl.create 1;
    tracks = [||];
    call_mask = 0;
    n_mem_deps = 0;
    track_mem = true;
  }

let create ?(make_predictor = fun () -> Predictors.Hybrid.create ())
    ?(static_prune = true) (ms : Classify.module_static) ~def_maps : t =
  let funcs = Hashtbl.create 16 in
  Hashtbl.iter
    (fun fname (fs : Classify.func_static) ->
      let defs = Array.make (Ir.Func.num_instrs fs.Classify.fn) [] in
      Option.iter
        (Hashtbl.iter (fun id phis -> defs.(id) <- phis))
        (Hashtbl.find_opt def_maps fname);
      Hashtbl.replace funcs fname
        {
          fid = Hashtbl.length funcs;
          fs;
          call_bit = (if fs.Classify.pure then mask_pure_user else mask_user);
          defs;
          watched =
            Array.map
              (fun ls -> Array.of_list (Classify.watched_phis ls))
              fs.Classify.loops;
        })
    ms.Classify.funcs;
  {
    invs = Ir.Vec.create ~dummy:dummy_inv;
    stack = [];
    frames = [];
    funcs;
    make_predictor;
    static_prune;
    phi_obs = Hashtbl.create 64;
    last_write = [||];
    pending_addr = -1;
    pending_clock = 0;
  }

let current_func t =
  match t.frames with fc :: _ -> fc | [] -> invalid_arg "no active function"

let new_track t (pi : Classify.phi_info) : reg_track =
  {
    phi_id = pi.Classify.phi_id;
    cls = pi.Classify.cls;
    predictor = Some (t.make_predictor ());
    prev_def_rel = -1;
    cur_def_rel = -1;
    use_seen = false;
    pending_mispredict = false;
    pending_iter = -1;
    n_instances = 0;
    n_mispredicts = 0;
    max_delta_all = 0.0;
    max_delta_mispredict = 0.0;
    mispredict_iters = Ir.Vec.create ~dummy:0;
  }

(* ---- event handlers ----

   Per-invocation telemetry only: loop enter/exit fire once per dynamic
   invocation, so a counter bump and an iteration-count observation here cost
   nothing per instruction (and are no-ops while telemetry is disabled). *)

let c_invocations = Obs.Telemetry.counter "profile.loop.invocations"

let h_loop_iters = Obs.Telemetry.histogram "profile.loop.iterations"

(* A call of class [bit] observed inside every active iteration. *)
let rec mark_calls bit = function
  | [] -> ()
  | inv :: rest ->
      inv.call_mask <- inv.call_mask lor bit;
      mark_calls bit rest

let on_call_enter t ~fname ~clock:_ =
  let fc =
    match Hashtbl.find_opt t.funcs fname with
    | Some fc -> fc
    | None -> invalid_arg ("Profile: call to unknown function " ^ fname)
  in
  t.frames <- fc :: t.frames;
  mark_calls fc.call_bit t.stack

let on_call_exit t ~fname:_ ~clock:_ =
  match t.frames with
  | _ :: rest -> t.frames <- rest
  | [] -> invalid_arg "call stack underflow"

let on_builtin_call t ~name ~clock:_ =
  let bit =
    match Ir.Builtins.find name with
    | Some s -> (
        match s.Ir.Builtins.safety with
        | Ir.Builtins.Pure -> mask_pure_builtin
        | Ir.Builtins.Thread_safe -> mask_threadsafe_builtin
        | Ir.Builtins.Io | Ir.Builtins.Global_state -> mask_unsafe_builtin)
    | None -> mask_unsafe_builtin
  in
  mark_calls bit t.stack

let on_loop_enter t ~lid ~clock =
  let fc = current_func t in
  let ls = fc.fs.Classify.loops.(lid) in
  let parent, parent_iter =
    match t.stack with
    | p :: _ -> (p.inv_id, cur_iter p)
    | [] -> (-1, 0)
  in
  let track_mem =
    (not t.static_prune)
    ||
    match ls.Classify.dep.Deptest.Analysis.verdict with
    | Deptest.Analysis.Proven_doall -> false
    | Deptest.Analysis.Proven_lcd _ | Deptest.Analysis.Unknown -> true
  in
  let inv =
    {
      inv_id = Ir.Vec.length t.invs;
      fname = fc.fs.Classify.fname;
      fid = fc.fid;
      lid;
      parent;
      parent_iter;
      start_clock = clock;
      end_clock = clock;
      iter_starts = Ir.Vec.create ~dummy:0;
      mem_conflicts = Hashtbl.create 8;
      tracks = Array.map (new_track t) fc.watched.(lid);
      call_mask = 0;
      n_mem_deps = 0;
      track_mem;
    }
  in
  Ir.Vec.push inv.iter_starts clock;
  Ir.Vec.push t.invs inv;
  Obs.Telemetry.incr c_invocations;
  t.stack <- inv :: t.stack

(* Close out per-track pending state for the iteration that just ended: a
   mispredicted instance whose consumer never executed stalls nothing, so
   its delta contribution is 0 (already the default). *)
let finish_iteration_tracks inv =
  Array.iter
    (fun tr ->
      tr.prev_def_rel <- tr.cur_def_rel;
      tr.cur_def_rel <- -1;
      tr.use_seen <- false;
      tr.pending_mispredict <- false)
    inv.tracks

let on_loop_iter t ~lid ~clock =
  match t.stack with
  | inv :: _ when inv.lid = lid ->
      finish_iteration_tracks inv;
      Ir.Vec.push inv.iter_starts clock
  | _ -> invalid_arg "loop_iter without matching invocation"

(* Nothing reads a bank after its invocation ends, so a finished profile
   holds only counts, deltas and mispredicted iterations. *)
let on_loop_exit t ~lid ~clock =
  match t.stack with
  | inv :: rest when inv.lid = lid ->
      finish_iteration_tracks inv;
      Array.iter (fun tr -> tr.predictor <- None) inv.tracks;
      inv.end_clock <- clock;
      Obs.Telemetry.observe h_loop_iters (float_of_int (n_iters inv));
      t.stack <- rest
  | _ -> invalid_arg "loop_exit without matching invocation"

(* The iteration of [inv] that was running at clock [w]: the last one to
   start before it. No write shares a clock with an iteration start (the
   latch branch and the header each retire an instruction in between). *)
let producer_iter inv w =
  let rec go lo hi =
    (* iter_start lo < w <= iter_start hi *)
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if iter_start inv mid < w then go mid hi else go lo mid
  in
  go 0 (cur_iter inv)

(* RAW loop-carried dependency manifests. The stall delta is the raw
   producer/consumer offset difference, NOT normalized by the iteration
   distance: the paper's HELIX model synchronizes every neighbouring-
   iteration pair at the worst offset observed for any manifesting LCD
   (§III-B), which is what lets PDOALL beat HELIX on loops with rare,
   long-distance conflicts (Fig. 4). *)
let record_conflict inv ~w ~clock =
  let k = cur_iter inv in
  let wi = producer_iter inv w in
  inv.n_mem_deps <- inv.n_mem_deps + 1;
  let prod_rel = w - iter_start inv wi in
  let cons_rel = clock - iter_start inv k in
  let delta = Float.max 0.0 (float_of_int (prod_rel - cons_rel)) in
  let old_d, old_p =
    Option.value ~default:(0.0, -1) (Hashtbl.find_opt inv.mem_conflicts k)
  in
  Hashtbl.replace inv.mem_conflicts k (Float.max old_d delta, max old_p wi)

(* A read of a word last written at clock [w] conflicts in a tracking
   invocation iff the write happened during the invocation but before its
   current iteration: start_clock < w < iter_start (cur_iter). When
   w > start_clock, [w] is also the last write reported while the
   invocation was live, i.e. what a per-invocation last-writer table would
   hold; otherwise that table would hold nothing for the word. Live
   invocations nest in time, and an enclosing invocation's current
   iteration began before any invocation inside it started. So only the
   innermost invocation that started before [w] can conflict, and the walk
   stops there. *)
let rec check_read ~w ~clock = function
  | [] -> ()
  | inv :: rest ->
      if inv.start_clock >= w then check_read ~w ~clock rest
      else if inv.track_mem && w < iter_start inv (cur_iter inv) then
        record_conflict inv ~w ~clock

let grow_last_write t addr =
  let old = t.last_write in
  let a = Array.make (max (addr + 1) (2 * Array.length old)) 0 in
  Array.blit old 0 a 0 (Array.length old);
  t.last_write <- a

let on_mem_access t ~addr ~is_write ~clock =
  if t.pending_addr >= 0 then begin
    grow_last_write t t.pending_addr;
    t.last_write.(t.pending_addr) <- t.pending_clock;
    t.pending_addr <- -1
  end;
  if addr > 0 && addr < Array.length t.last_write then begin
    if is_write then t.last_write.(addr) <- clock
    else
      let w = t.last_write.(addr) in
      if w > 0 then check_read ~w ~clock t.stack
  end
  else if is_write && addr > 0 then begin
    t.pending_addr <- addr;
    t.pending_clock <- clock
  end

let rec track_index tracks phi_id i =
  if i = Array.length tracks then -1
  else if tracks.(i).phi_id = phi_id then i
  else track_index tracks phi_id (i + 1)

(* The innermost live invocation of function [fid] watching phi [phi_id],
   with its track. *)
let rec find_track fid phi_id = function
  | [] -> None
  | (inv : inv) :: rest ->
      let i = if inv.fid = fid then track_index inv.tracks phi_id 0 else -1 in
      if i >= 0 then Some (inv, inv.tracks.(i)) else find_track fid phi_id rest

(* Observed dynamic envelope per header phi. Floats are skipped: the range
   analysis proves nothing about them (their interval is top anyway). Bools
   use the interpreter's own 0/1 integer encoding. *)
let record_phi_obs t (fc : func_ctx) ~phi_id ~value =
  let recorded =
    match value with
    | Interp.Rvalue.Vint v -> Some v
    | Interp.Rvalue.Vbool b -> Some (if b then 1L else 0L)
    | Interp.Rvalue.Vfloat _ -> None
  in
  match recorded with
  | None -> ()
  | Some v -> (
      let key = (fc.fs.Classify.fname, phi_id) in
      match Hashtbl.find_opt t.phi_obs key with
      | None -> Hashtbl.replace t.phi_obs key (v, v)
      | Some (lo, hi) ->
          if v < lo || v > hi then Hashtbl.replace t.phi_obs key (min v lo, max v hi))

let on_header_phi t ~phi_id ~value ~clock:_ =
  let fc = current_func t in
  record_phi_obs t fc ~phi_id ~value;
  match find_track fc.fid phi_id t.stack with
  | Some (inv, tr) ->
      let k = cur_iter inv in
      let hit =
        Predictors.Hybrid.step (Option.get tr.predictor)
          (Predictors.Hybrid.bits_of_rv value)
      in
      if k > 0 then begin
        tr.n_instances <- tr.n_instances + 1;
        if not hit then begin
          tr.n_mispredicts <- tr.n_mispredicts + 1;
          tr.pending_mispredict <- true;
          tr.pending_iter <- k;
          Ir.Vec.push tr.mispredict_iters k
        end
      end
  | None -> ()

let rec time_defs stack fid ~clock = function
  | [] -> ()
  | phi_id :: rest ->
      (match find_track fid phi_id stack with
      | Some (inv, tr) -> tr.cur_def_rel <- clock - iter_start inv (cur_iter inv)
      | None -> ());
      time_defs stack fid ~clock rest

let on_watched_def t ~instr_id ~clock =
  let fc = current_func t in
  time_defs t.stack fc.fid ~clock fc.defs.(instr_id)

let on_watched_use t ~phi_id ~clock =
  match find_track (current_func t).fid phi_id t.stack with
  | Some (inv, tr) when not tr.use_seen ->
      tr.use_seen <- true;
      let k = cur_iter inv in
      if k > 0 && tr.prev_def_rel >= 0 then begin
        let use_rel = clock - iter_start inv k in
        let delta = Float.max 0.0 (float_of_int (tr.prev_def_rel - use_rel)) in
        tr.max_delta_all <- Float.max tr.max_delta_all delta;
        if tr.pending_mispredict && tr.pending_iter = k then
          tr.max_delta_mispredict <- Float.max tr.max_delta_mispredict delta
      end
  | Some _ | None -> ()

let hooks_of t : Interp.Events.hooks =
  {
    Interp.Events.on_call_enter = (fun ~fname ~clock -> on_call_enter t ~fname ~clock);
    on_call_exit = (fun ~fname ~clock -> on_call_exit t ~fname ~clock);
    on_loop_enter = (fun ~lid ~clock -> on_loop_enter t ~lid ~clock);
    on_loop_iter = (fun ~lid ~clock -> on_loop_iter t ~lid ~clock);
    on_loop_exit = (fun ~lid ~clock -> on_loop_exit t ~lid ~clock);
    on_mem_access =
      (fun ~addr ~is_write ~clock -> on_mem_access t ~addr ~is_write ~clock);
    on_watched_def = (fun ~instr_id ~clock -> on_watched_def t ~instr_id ~clock);
    on_watched_use = (fun ~phi_id ~clock -> on_watched_use t ~phi_id ~clock);
    on_header_phi = (fun ~phi_id ~value ~clock -> on_header_phi t ~phi_id ~value ~clock);
    on_builtin_call = (fun ~name ~clock -> on_builtin_call t ~name ~clock);
  }

(* ---- the collected profile ---- *)

type profile = {
  ms : Classify.module_static;
  invs : inv array; (* creation order: parents before children *)
  phi_obs : (string * int, int64 * int64) Hashtbl.t;
      (* observed (min, max) per header phi; populated only for phis the
         watch plan reported (all of them under Driver ~observe_ranges) *)
  total_cost : int;
  outcome : Interp.Machine.outcome;
  truncated : bool;
      (* the run stopped at a budget (fuel/depth/heap/wall): the profile
         covers the executed prefix only — every invocation is still closed,
         so Evaluate scores the prefix; reports carry the flag through *)
}

(* Per-iteration raw costs of an invocation: start-to-start deltas, with the
   final iteration closed by the loop-exit clock. *)
let iter_costs (inv : inv) : int array =
  let n = n_iters inv in
  Array.init n (fun k ->
      let s = iter_start inv k in
      let e = if k + 1 < n then iter_start inv (k + 1) else inv.end_clock in
      e - s)
