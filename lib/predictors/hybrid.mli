(** Perfectly hybridized value-predictor bank (paper §III-C): an LCD
    instance counts as predicted when {e any} enabled component predicts it
    — the paper's upper bound on realistic hybrids, avoiding a particular
    confidence scheme. A bank is fed the per-iteration values of one
    register LCD within one loop invocation. *)

(** Last-value, stride, 2-delta stride and order-2 FCM. *)
type component = Last_value | Stride | Two_delta | Fcm

(** Every component: the paper's bank. *)
val all : component list

(** The component's telemetry name: its counters are
    [predictor.<name>.hits] and [predictor.<name>.misses]. *)
val name : component -> string

type t

(** A fresh bank running [components] (default {!all}; ablation studies
    run subsets). *)
val create : ?components:component list -> unit -> t

(** Restore a fresh bank's predictions. Counts not yet flushed stay. *)
val reset : t -> unit

(** Was the next value predicted by any enabled component? Every component
    predicts before any trains on it. The step is counted in the bank; it
    allocates only when FCM's table of written contexts doubles. *)
val step : t -> int64 -> bool

(** Add the bank's hits and misses since the last flush to the
    [predictor.*] counters (those of its enabled components and the
    hybrid's), then zero them. *)
val flush : t -> unit

(** Per-element hit flags over a whole stream (resets first, flushes
    after). *)
val hits : t -> int64 list -> bool list

(** The 64-bit image predictors work in (floats by bit pattern). *)
val bits_of_rv : Interp.Rvalue.rv -> int64
