(* The perf-trajectory regression gate: compare bench snapshots
   (BENCH_quick.json / BENCH_full.json shape, or any JSON object of nested
   numeric series) and flag series that got worse beyond a noise-aware
   threshold.

   A snapshot is flattened to dotted-path numeric leaves; only leaves whose
   key names a performance direction are compared — seconds (lower is
   better), rates and speedups (higher is better). Structural counts
   (n_benchmarks, cores, iterations...) are deliberately not perf series: a
   changed count is a changed workload, not a regression, and comparing it
   would make every benchmark addition fail the gate.

   Thresholds are per-class relative slacks scaled by a caller tolerance —
   wall-clock series get the widest slack because CI wall time is the
   noisiest thing we measure. *)

module Json = Util.Json

type direction = Lower_better | Higher_better

let direction_to_string = function
  | Lower_better -> "lower"
  | Higher_better -> "higher"

type series = { path : string; dir : direction; value : float }

(* Directional classification by leaf key. Conservative: anything not
   recognizably a timing/rate/speedup series is skipped, so new structural
   fields never trip the gate by accident. *)
let direction_of_key key =
  let suffix s =
    String.length key >= String.length s
    && String.sub key (String.length key - String.length s) (String.length s)
       = s
  in
  if suffix "_per_s" || suffix "per_sec" then Some Higher_better
  else if key = "speedup" || suffix "_speedup" then Some Higher_better
  else if key = "throughput" || suffix "_throughput" then Some Higher_better
  else if key = "s" || suffix "_s" then Some Lower_better
  else None

let flatten j =
  let acc = ref [] in
  let join prefix k = if prefix = "" then k else prefix ^ "." ^ k in
  let rec go prefix leaf j =
    match j with
    | Json.Obj kvs -> List.iter (fun (k, v) -> go (join prefix k) k v) kvs
    | Json.List l ->
        List.iteri (fun i v -> go (join prefix (string_of_int i)) leaf v) l
    | Json.Int _ | Json.Float _ -> (
        match direction_of_key leaf with
        | Some dir ->
            let value =
              match j with
              | Json.Int n -> float_of_int n
              | Json.Float f -> f
              | _ -> 0.0
            in
            if Float.is_finite value then
              acc := { path = prefix; dir; value } :: !acc
        | None -> ())
    | Json.Null | Json.Bool _ | Json.String _ -> ()
  in
  go "" "" j;
  List.rev !acc

(* Base relative slack per series class, before the caller's tolerance
   multiplier. Wall-clock seconds on shared CI runners routinely jitter by
   tens of percent, so the default gate only fires on big, real movements
   (the synthetic-2x acceptance case is 100% worse). *)
let base_slack = function Lower_better -> 0.5 | Higher_better -> 0.35

(* Below these magnitudes a series is all noise floor: a 3 ms phase that
   becomes 7 ms is not a regression worth failing CI over. *)
let noise_floor = function Lower_better -> 0.05 | Higher_better -> 1e-9

type verdict = {
  v_path : string;
  v_dir : direction;
  v_base : float;  (** old value *)
  v_new : float;
  v_slack : float;  (** allowed relative worsening, e.g. 0.5 = +50% *)
  v_worse_by : float;  (** relative worsening; negative = improved *)
  v_regressed : bool;
}

let judge ~tolerance base_v s =
  let slack = base_slack s.dir *. tolerance in
  let floor = noise_floor s.dir in
  let worse_abs =
    match s.dir with
    | Lower_better -> s.value -. base_v
    | Higher_better -> base_v -. s.value
  in
  let worse_by =
    if abs_float base_v < 1e-12 then 0.0 else worse_abs /. abs_float base_v
  in
  let below_floor = abs_float base_v < floor && abs_float s.value < floor in
  let allowed_abs = slack *. abs_float base_v in
  {
    v_path = s.path;
    v_dir = s.dir;
    v_base = base_v;
    v_new = s.value;
    v_slack = slack;
    v_worse_by = worse_by;
    v_regressed = (not below_floor) && worse_abs > allowed_abs;
  }

let compare_snapshots ?(tolerance = 1.0) ~old_ ~new_ () =
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace old_tbl s.path s.value) (flatten old_);
  List.filter_map
    (fun s ->
      match Hashtbl.find_opt old_tbl s.path with
      | Some base_v -> Some (judge ~tolerance base_v s)
      | None -> None)
    (flatten new_)

let regressions verdicts = List.filter (fun v -> v.v_regressed) verdicts

let render ?(only_regressions = false) verdicts =
  let t =
    Table.create
      [ "series"; "dir"; "base"; "new"; "change"; "slack"; "verdict" ]
  in
  List.iter
    (fun v ->
      if v.v_regressed || not only_regressions then
        Table.add_row t
          [
            v.v_path;
            direction_to_string v.v_dir;
            Printf.sprintf "%.4g" v.v_base;
            Printf.sprintf "%.4g" v.v_new;
            Printf.sprintf "%+.1f%%" (100.0 *. v.v_worse_by);
            Printf.sprintf "%.0f%%" (100.0 *. v.v_slack);
            (if v.v_regressed then "REGRESSED" else "ok");
          ])
    verdicts;
  Table.render t

let to_json verdicts =
  Json.List
    (List.map
       (fun v ->
         Json.Obj
           [
             ("series", Json.String v.v_path);
             ("direction", Json.String (direction_to_string v.v_dir));
             ("base", Json.Float v.v_base);
             ("new", Json.Float v.v_new);
             ("worse_by", Json.Float v.v_worse_by);
             ("slack", Json.Float v.v_slack);
             ("regressed", Json.Bool v.v_regressed);
           ])
       verdicts)
