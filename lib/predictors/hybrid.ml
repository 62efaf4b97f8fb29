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
     last time it occurred.

   A step allocates nothing unless FCM's table doubles: the history lives
   unboxed in a [Bytes], read and compared at type [int64] in this module
   (an [int64] stored in a record field would be boxed on every write), and
   the hit counts are ints that reach the telemetry counters only when the
   bank is flushed. *)

type component = Last_value | Stride | Two_delta | Fcm

let all = [ Last_value; Stride; Two_delta; Fcm ]

let name = function
  | Last_value -> "last-value"
  | Stride -> "stride"
  | Two_delta -> "2-delta"
  | Fcm -> "fcm-2"

(* Byte offsets in [hist]: the last two values and 2-delta's adopted
   stride. *)
let last_o = 0

let prev_o = 8

let delta_o = 16

type t = {
  (* the components this bank runs *)
  last_value : bool;
  stride : bool;
  two_delta : bool;
  fcm : bool;
  mutable seen : int; (* values seen, saturating at 2 *)
  hist : Bytes.t; (* last, prev, delta: 8 bytes each *)
  (* FCM: the value that last followed each context written, in an
     open-addressed table of [Array.length keys] slots (a power of two,
     created at the first write). [keys.(i)] holds the context + 1, 0 when
     the slot is empty; its value is at [8 * i] in [vals]. *)
  mutable keys : int array;
  mutable vals : Bytes.t;
  mutable used : int; (* occupied slots, at most half of them *)
  (* steps and hits since the last flush *)
  mutable steps : int;
  mutable lv_hits : int;
  mutable st_hits : int;
  mutable td_hits : int;
  mutable fcm_hits : int;
  mutable hybrid_hits : int;
}

let[@inline] get t o = Bytes.get_int64_le t.hist o

let[@inline] set t o v = Bytes.set_int64_le t.hist o v

(* FCM's order-2 context: the last two values hashed newest first, masked
   at each step to the 12 bits of a dense 4,096-slot table, so distinct
   contexts collide exactly as they would there. Only the slots a stream
   writes are stored: one LCD's stream touches a handful of contexts. *)
let context t =
  let golden = 0x9E3779B97F4A7C15L in
  let h =
    Int64.to_int
      (Int64.logand (Int64.mul (Int64.logxor (get t last_o) 5381L) golden) Int64.max_int)
    land 0xfff
  in
  Int64.to_int
    (Int64.logand
       (Int64.mul (Int64.logxor (get t prev_o) (Int64.of_int h)) golden)
       Int64.max_int)
  land 0xfff

(* The slot holding [ctx], or the empty slot where it would go. The table
   is never full, so the probe ends. *)
let rec slot keys key i =
  let k = keys.(i) in
  if k = key || k = 0 then i else slot keys key ((i + 1) land (Array.length keys - 1))

(* Did [v] follow [ctx] the last time [ctx] occurred? *)
let fcm_hit t ctx (v : int64) =
  Array.length t.keys > 0
  &&
  let i = slot t.keys (ctx + 1) (ctx land (Array.length t.keys - 1)) in
  t.keys.(i) <> 0 && Bytes.get_int64_le t.vals (8 * i) = v

(* The only allocation on the step path: a fresh table of [n] slots holding
   the old one's entries. *)
let resize t n =
  let keys = t.keys and vals = t.vals in
  t.keys <- Array.make n 0;
  t.vals <- Bytes.create (8 * n);
  for i = 0 to Array.length keys - 1 do
    let key = keys.(i) in
    if key <> 0 then begin
      let j = slot t.keys key ((key - 1) land (n - 1)) in
      t.keys.(j) <- key;
      Bytes.set_int64_le t.vals (8 * j) (Bytes.get_int64_le vals (8 * i))
    end
  done

let fcm_write t ctx (v : int64) =
  if Array.length t.keys = 0 then resize t 8;
  let key = ctx + 1 in
  let i = slot t.keys key (ctx land (Array.length t.keys - 1)) in
  Bytes.set_int64_le t.vals (8 * i) v;
  if t.keys.(i) = 0 then begin
    t.keys.(i) <- key;
    t.used <- t.used + 1;
    if 2 * t.used > Array.length t.keys then resize t (2 * Array.length t.keys)
  end

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

let create ?(components = all) () =
  {
    last_value = List.mem Last_value components;
    stride = List.mem Stride components;
    two_delta = List.mem Two_delta components;
    fcm = List.mem Fcm components;
    seen = 0;
    hist = Bytes.make 24 '\000';
    keys = [||];
    vals = Bytes.empty;
    used = 0;
    steps = 0;
    lv_hits = 0;
    st_hits = 0;
    td_hits = 0;
    fcm_hits = 0;
    hybrid_hits = 0;
  }

let reset t =
  t.seen <- 0;
  set t delta_o 0L;
  Array.fill t.keys 0 (Array.length t.keys) 0;
  t.used <- 0

let flush_pair (hits, misses) h n =
  Obs.Telemetry.add hits h;
  Obs.Telemetry.add misses (n - h)

let flush t =
  let n = t.steps in
  if n > 0 then begin
    if t.last_value then flush_pair c_last_value t.lv_hits n;
    if t.stride then flush_pair c_stride t.st_hits n;
    if t.two_delta then flush_pair c_two_delta t.td_hits n;
    if t.fcm then flush_pair c_fcm t.fcm_hits n;
    flush_pair c_hybrid t.hybrid_hits n;
    t.steps <- 0;
    t.lv_hits <- 0;
    t.st_hits <- 0;
    t.td_hits <- 0;
    t.fcm_hits <- 0;
    t.hybrid_hits <- 0
  end

(* Every enabled component predicts [v] before any component trains on it,
   and each is counted (no short-circuit), so per-component counts stay
   meaningful. *)
let step t (v : int64) : bool =
  let seen = t.seen in
  let last = get t last_o in
  (* the last delta seen, 0 before two values: stride's prediction adds it,
     and 2-delta adopts a delta equal to it *)
  let s = if seen = 2 then Int64.sub last (get t prev_o) else 0L in
  let lv = t.last_value && seen > 0 && v = last in
  let st = t.stride && seen > 0 && v = Int64.add last s in
  let td = t.two_delta && seen > 0 && v = Int64.add last (get t delta_o) in
  let ctx = if t.fcm && seen = 2 then context t else -1 in
  let fcm = ctx >= 0 && fcm_hit t ctx v in
  let hit = lv || st || td || fcm in
  t.steps <- t.steps + 1;
  if lv then t.lv_hits <- t.lv_hits + 1;
  if st then t.st_hits <- t.st_hits + 1;
  if td then t.td_hits <- t.td_hits + 1;
  if fcm then t.fcm_hits <- t.fcm_hits + 1;
  if hit then t.hybrid_hits <- t.hybrid_hits + 1;
  if ctx >= 0 then fcm_write t ctx v;
  if t.two_delta && seen > 0 && Int64.sub v last = s then set t delta_o s;
  set t prev_o last;
  set t last_o v;
  if seen < 2 then t.seen <- seen + 1;
  hit

let hits t stream =
  reset t;
  let hs = List.map (step t) stream in
  flush t;
  hs

(* Bit image of a runtime value, the currency predictors work in: the
   payload the interpreter stores for it. *)
let bits_of_rv = Interp.Rvalue.bits_of
