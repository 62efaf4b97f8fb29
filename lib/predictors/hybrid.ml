(* Perfectly hybridized predictor bank (paper §III-C): an LCD instance counts
   as predicted if *any* component predictor got it right. The paper argues
   this upper-bounds realistic hybrids without baking in a particular
   confidence scheme. *)

(* Each component carries hit/miss counters so the per-instance telemetry
   bump never hashes a name; every counter op is a no-op while telemetry is
   disabled. A bank is created per tracked LCD per loop invocation, so the
   counters are interned once per component name, not per bank. *)
type slot = {
  p : Predictor.t;
  hits_c : Obs.Telemetry.counter;
  misses_c : Obs.Telemetry.counter;
}

type t = { slots : slot array }

let c_hybrid_hits = Obs.Telemetry.counter "predictor.hybrid.hits"

let c_hybrid_misses = Obs.Telemetry.counter "predictor.hybrid.misses"

let interned : (string, Obs.Telemetry.counter * Obs.Telemetry.counter) Hashtbl.t =
  Hashtbl.create 8

let slot_of (p : Predictor.t) =
  let name = p.Predictor.name in
  let hits_c, misses_c =
    match Hashtbl.find_opt interned name with
    | Some cs -> cs
    | None ->
        let cs =
          ( Obs.Telemetry.counter ("predictor." ^ name ^ ".hits"),
            Obs.Telemetry.counter ("predictor." ^ name ^ ".misses") )
        in
        Hashtbl.add interned name cs;
        cs
  in
  { p; hits_c; misses_c }

let create ?(components = None) () : t =
  let components =
    match components with
    | Some cs -> cs
    | None ->
        [ Last_value.create (); Stride.create (); Two_delta.create (); Fcm.create () ]
  in
  { slots = Array.of_list (List.map slot_of components) }

let reset t = Array.iter (fun s -> s.p.Predictor.reset ()) t.slots

(* Returns whether any component would have predicted [v], then trains all.
   Every component is consulted (no short-circuit) so per-component accuracy
   counters stay meaningful; [predict] never mutates, so this is free of
   semantic effect. *)
let step t (v : int64) : bool =
  let slots = t.slots in
  let hit = ref false in
  for i = 0 to Array.length slots - 1 do
    let s = slots.(i) in
    let h =
      match s.p.Predictor.predict () with Some g -> Int64.equal g v | None -> false
    in
    Obs.Telemetry.incr (if h then s.hits_c else s.misses_c);
    if h then hit := true
  done;
  for i = 0 to Array.length slots - 1 do
    slots.(i).p.Predictor.train v
  done;
  Obs.Telemetry.incr (if !hit then c_hybrid_hits else c_hybrid_misses);
  !hit

let hits t stream =
  reset t;
  List.map (step t) stream

(* Bit image of a runtime value, the currency predictors work in. *)
let bits_of_rv : Interp.Rvalue.rv -> int64 = function
  | Interp.Rvalue.Vint i -> i
  | Interp.Rvalue.Vfloat f -> Int64.bits_of_float f
  | Interp.Rvalue.Vbool b -> if b then 1L else 0L
