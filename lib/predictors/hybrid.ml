(* Perfectly hybridized value-predictor bank (paper §III-C): an LCD instance
   counts as predicted if *any* enabled component got it right. The paper
   argues this upper-bounds realistic hybrids without baking in a particular
   confidence scheme.

   A bank is created per tracked LCD per loop invocation, so it is one flat
   record. Its components share one history, the last two values:

   - last-value predicts [last] once one value has been seen;
   - stride predicts [last] after one value, [last + (last - prev)] after two;
   - 2-delta predicts [last + delta] once one value has been seen, where the
     stride [delta] (initially 0) changes only when the same new delta is
     seen twice in a row, filtering one-off disturbances;
   - FCM (Sazeides & Smith, MICRO'97) predicts, once two values have been
     seen, the value that followed the context of the last two values the
     last time it occurred. *)

type component = Last_value | Stride | Two_delta | Fcm

let all = [ Last_value; Stride; Two_delta; Fcm ]

let name = function
  | Last_value -> "last-value"
  | Stride -> "stride"
  | Two_delta -> "2-delta"
  | Fcm -> "fcm-2"

type t = {
  (* the components this bank runs *)
  last_value : bool;
  stride : bool;
  two_delta : bool;
  fcm : bool;
  mutable seen : int; (* values seen, saturating at 2 *)
  mutable last : int64;
  mutable prev : int64;
  (* 2-delta's adopted stride and its candidate, kept as the last delta seen
     (0 before any). A delta equal to the stride clears the candidate: it
     then equals the stride, which stands for none. A delta equal to the
     candidate is adopted; any other delta becomes the candidate. *)
  mutable delta : int64;
  mutable candidate : int64;
  (* FCM: context -> the value that last followed it *)
  contexts : (int, int64) Hashtbl.t;
}

(* FCM's order-2 context: the last two values hashed newest first, masked
   at each step to the 12 bits of a dense 4,096-slot table, so distinct
   contexts collide exactly as they would there. Only the slots a stream
   writes are stored: one LCD's stream touches a handful of contexts. *)
let context last prev =
  let mix v acc =
    Int64.to_int
      (Int64.logand
         (Int64.mul (Int64.logxor v (Int64.of_int acc)) 0x9E3779B97F4A7C15L)
         Int64.max_int)
    land 0xfff
  in
  mix prev (mix last 5381)

(* A hits/misses counter pair per component and for the hybrid; every bump
   is a no-op while telemetry is disabled. *)
let counters name =
  ( Obs.Telemetry.counter ("predictor." ^ name ^ ".hits"),
    Obs.Telemetry.counter ("predictor." ^ name ^ ".misses") )

let c_last_value = counters (name Last_value)

let c_stride = counters (name Stride)

let c_two_delta = counters (name Two_delta)

let c_fcm = counters (name Fcm)

let c_hybrid = counters "hybrid"

let count (hits, misses) hit = Obs.Telemetry.incr (if hit then hits else misses)

let create ?(components = all) () =
  {
    last_value = List.mem Last_value components;
    stride = List.mem Stride components;
    two_delta = List.mem Two_delta components;
    fcm = List.mem Fcm components;
    seen = 0;
    last = 0L;
    prev = 0L;
    delta = 0L;
    candidate = 0L;
    contexts = Hashtbl.create 8;
  }

let reset t =
  t.seen <- 0;
  t.delta <- 0L;
  t.candidate <- 0L;
  Hashtbl.reset t.contexts

(* Every enabled component predicts [v] before any component trains on it,
   and each is counted (no short-circuit), so per-component counters stay
   meaningful. *)
let step t (v : int64) : bool =
  let seen = t.seen and last = t.last and prev = t.prev in
  let lv = t.last_value && seen > 0 && Int64.equal v last in
  let st =
    t.stride && seen > 0
    && Int64.equal v (if seen = 1 then last else Int64.add last (Int64.sub last prev))
  in
  let td = t.two_delta && seen > 0 && Int64.equal v (Int64.add last t.delta) in
  let ctx = if t.fcm && seen = 2 then context last prev else -1 in
  let fcm =
    ctx >= 0
    && match Hashtbl.find_opt t.contexts ctx with Some g -> Int64.equal g v | None -> false
  in
  let hit = lv || st || td || fcm in
  if t.last_value then count c_last_value lv;
  if t.stride then count c_stride st;
  if t.two_delta then count c_two_delta td;
  if t.fcm then count c_fcm fcm;
  count c_hybrid hit;
  if ctx >= 0 then Hashtbl.replace t.contexts ctx v;
  if t.two_delta && seen > 0 then begin
    let d = Int64.sub v last in
    if Int64.equal d t.candidate then t.delta <- t.candidate;
    t.candidate <- d
  end;
  t.prev <- last;
  t.last <- v;
  if seen < 2 then t.seen <- seen + 1;
  hit

let hits t stream =
  reset t;
  List.map (step t) stream

(* Bit image of a runtime value, the currency predictors work in: the
   payload the interpreter stores for it. *)
let bits_of_rv = Interp.Rvalue.bits_of
