(* Seeded deterministic fault schedules for the execution stack (see the
   .mli). Placement is a pure function of (seed, task index) — never of
   scheduling — so two runs of the same campaign under the same seed
   inject exactly the same faults into exactly the same tasks no matter
   how the pool interleaves them. *)

type task_fault =
  | Kill_self
  | Stall_self
  | Torn_result
  | Corrupt_result
  | Delay_result of float

type ckpt_fault = Eio | Enospc

type rates = {
  kill : float;
  stall : float;
  torn : float;
  corrupt : float;
  delay : float;
  ckpt : float;
}

let default_rates =
  { kill = 0.10; stall = 0.05; torn = 0.05; corrupt = 0.05; delay = 0.10; ckpt = 0.05 }

type plan =
  | Seeded of { seed : int; rates : rates }
  | Explicit of {
      tasks : (int * task_fault) list;
      ckpt : (int * ckpt_fault) list;
    }

let seeded ?(rates = default_rates) seed = Seeded { seed; rates }

let explicit ?(ckpt_faults = []) tasks = Explicit { tasks; ckpt = ckpt_faults }

let seed = function Seeded { seed; _ } -> Some seed | Explicit _ -> None

(* splitmix64 finalizer over a key mixed from (seed, lane, index). The
   lane separates independent decisions about the same index (which
   fault, its delay duration, checkpoint faults) so they never alias. *)
let hash (seed : int) (lane : int) (i : int) : int64 =
  let open Int64 in
  let finalize z =
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  let z =
    logxor
      (mul (of_int seed) 0x9E3779B97F4A7C15L)
      (logxor
         (mul (of_int (lane + 1)) 0xBF58476D1CE4E5B9L)
         (mul (of_int (i + 1)) 0x94D049BB133111EBL))
  in
  finalize (finalize z)

(* uniform in [0,1) from the top 53 bits *)
let unit_of seed lane i =
  let bits = Int64.shift_right_logical (hash seed lane i) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

(* The rate ladder, shared by per-task and per-shard placement; the lane
   pair keeps the two schedules (and each schedule's fault-vs-delay
   decisions) independent for the same index. *)
let pick_fault ~seed ~rates ~lane_fault ~lane_delay i =
  let u = unit_of seed lane_fault i in
  let k = rates.kill in
  let s = k +. rates.stall in
  let t = s +. rates.torn in
  let c = t +. rates.corrupt in
  let d = c +. rates.delay in
  if u < k then Some Kill_self
  else if u < s then Some Stall_self
  else if u < t then Some Torn_result
  else if u < c then Some Corrupt_result
  else if u < d then
    (* short delays only: long enough to shuffle completion order,
       far below any sane watchdog deadline (no injected timeouts) *)
    Some (Delay_result (0.02 +. (0.2 *. unit_of seed lane_delay i)))
  else None

let task_fault plan i =
  match plan with
  | Explicit { tasks; _ } -> List.assoc_opt i tasks
  | Seeded { seed; rates } ->
      pick_fault ~seed ~rates ~lane_fault:0 ~lane_delay:1 i

let ckpt_fault plan k =
  match plan with
  | Explicit { ckpt; _ } -> List.assoc_opt k ckpt
  | Seeded { seed; rates } ->
      if unit_of seed 2 k < rates.ckpt then
        if Int64.rem (hash seed 3 k) 2L = 0L then Some Eio else Some Enospc
      else None

(* ---- shard-scoped faults (guarded parallel loop execution) ----

   A shard fault sabotages one shard of one sharded loop invocation:
   the guarded runner translates the (invocation, shard) decision into a
   per-round explicit task plan for the pool, so the usual worker-side
   injection point fires mid-loop. Keyed independently of the task
   schedule (lanes 4/5 vs 0/1) so chaosing a campaign and chaosing its
   parallel loops never alias. *)

type shard_plan =
  | Shard_seeded of { seed : int; rates : rates }
  | Shard_explicit of ((int * int) * task_fault) list

let shard_seeded ?(rates = default_rates) seed = Shard_seeded { seed; rates }

let shard_explicit faults = Shard_explicit faults

(* One index per (invocation, shard) pair: shards per invocation are
   bounded by the pool's job count, far below the mixing factor, so the
   mapping is injective in practice and deterministic regardless. *)
let shard_index ~invocation ~shard = (invocation * 8191) + shard

let shard_fault plan ~invocation ~shard =
  match plan with
  | Shard_explicit faults -> List.assoc_opt (invocation, shard) faults
  | Shard_seeded { seed; rates } ->
      pick_fault ~seed ~rates ~lane_fault:4 ~lane_delay:5
        (shard_index ~invocation ~shard)

let shard_summary plan ~invocations ~shards =
  let tbl = Hashtbl.create 8 in
  for inv = 0 to invocations - 1 do
    for s = 0 to shards - 1 do
      match shard_fault plan ~invocation:inv ~shard:s with
      | None -> ()
      | Some f ->
          let k =
            match f with
            | Kill_self -> "kill"
            | Stall_self -> "stall"
            | Torn_result -> "torn"
            | Corrupt_result -> "corrupt"
            | Delay_result _ -> "delay"
          in
          Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
    done
  done;
  [ "kill"; "stall"; "torn"; "corrupt"; "delay" ]
  |> List.map (fun k ->
         Printf.sprintf "%s %d" k (Option.value ~default:0 (Hashtbl.find_opt tbl k)))
  |> String.concat ", "

let lethal = function
  | Kill_self | Stall_self | Torn_result | Corrupt_result -> true
  | Delay_result _ -> false

let fault_name = function
  | Kill_self -> "kill"
  | Stall_self -> "stall"
  | Torn_result -> "torn"
  | Corrupt_result -> "corrupt"
  | Delay_result _ -> "delay"

let ckpt_fault_name = function Eio -> "EIO" | Enospc -> "ENOSPC"

(* These strings must match what the pool's reaper reports for the real
   fault, byte for byte: when the campaign degrades to serial execution
   it records the scheduled loss without forking, and the checkpoint
   line must be identical either way. Kill_self dies by its own SIGKILL;
   Torn/Corrupt _exit(1) after poisoning the stream; Stall_self is not a
   Lost at all (the watchdog turns it into a timeout). *)
let simulated_lost_cause = function
  | Kill_self -> Some "worker killed by SIGKILL"
  | Torn_result | Corrupt_result -> Some "worker exited with code 1"
  | Stall_self | Delay_result _ -> None

let planned_counts plan ~n =
  let names = [ "kill"; "stall"; "torn"; "corrupt"; "delay" ] in
  let tbl = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace tbl k 0) names;
  for i = 0 to n - 1 do
    match task_fault plan i with
    | None -> ()
    | Some f ->
        let k = fault_name f in
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  done;
  let ckpt = ref 0 in
  for k = 0 to n - 1 do
    if ckpt_fault plan k <> None then incr ckpt
  done;
  List.map (fun k -> (k, Hashtbl.find tbl k)) names @ [ ("ckpt-fail", !ckpt) ]

let summary plan ~n =
  planned_counts plan ~n
  |> List.map (fun (k, c) -> Printf.sprintf "%s %d" k c)
  |> String.concat ", "
