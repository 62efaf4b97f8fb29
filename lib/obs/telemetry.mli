(** Obs.Telemetry — the framework's self-describing instrumentation.

    Three primitives, all process-wide and single-threaded like the rest of
    the tree:

    - {b spans}: nestable monotonic-clock start/stop intervals with key/value
      attributes, wrapping pipeline stages (parse, sema, lower, verify, the
      individual opt passes, SCEV, deptest, classify, the profiling
      interpretation, evaluation) and campaign tasks;
    - {b counters}: monotone integer totals in a registry keyed by name
      (instructions retired, memory events emitted vs pruned, predictor
      hits/misses, model invocations scored, ...);
    - {b histograms}: value distributions (log2 buckets plus count/sum/
      min/max) for things like per-invocation iteration counts.

    Everything dispatches through a {e sink}. The default sink is the null
    sink: [span_begin] returns a dummy handle, [add] and [observe] fall
    through a single branch, and nothing is ever recorded — instrumented
    code pays one load-and-test per call site. {!enable} swaps in the
    recording sink. The interpreter's per-instruction hot loop is not
    instrumented at all: the machine keeps its own counters and the driver
    feeds them into the registry once per run (see Machine accessors).

    Counter and histogram handles are interned once ({!counter},
    {!histogram}) so hot call sites never hash strings. *)

(* ---- lifecycle ---- *)

val enabled : unit -> bool

(** Start recording. Registrations made while disabled are kept. *)
val enable : unit -> unit

val disable : unit -> unit

(** Drop every recorded span, zero every counter and histogram. Handles
    stay valid (they are registry entries, not snapshots). *)
val reset : unit -> unit

(** Override the monotonic clock (seconds). [None] restores the default
    ([Sys.time], processor time — monotone and dependency-free). Tests
    inject a deterministic counter here. *)
val set_clock : (unit -> float) option -> unit

(* ---- spans ---- *)

(** A finished span. [start_s] is on the telemetry clock; [dur_s >= 0].
    [id]s increase in start order; [parent] is the enclosing span's id, or
    -1 for a root. [depth] is the nesting depth (0 for roots). *)
type span = {
  id : int;
  parent : int;
  depth : int;
  name : string;
  start_s : float;
  dur_s : float;
  attrs : (string * string) list;
}

(** Handle to an open span; worthless once ended. *)
type handle

(** A handle that {!span_end} ignores — what {!span_begin} returns while
    disabled. *)
val null_handle : handle

val span_begin : ?attrs:(string * string) list -> string -> handle

(** End an open span. Any span opened after [h] and still open is closed
    first (misuse-tolerant), so the stack never leaks. [attrs] are appended
    to the ones given at [span_begin]. *)
val span_end : ?attrs:(string * string) list -> handle -> unit

(** [with_span name f] runs [f] inside a span, closing it whatever happens —
    including a raised [Trap] or [Budget_stop]; the exception is re-raised.
    When an exception escapes, an ["outcome" = "raised"] attribute is added. *)
val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Finished spans in start order. *)
val spans : unit -> span list

(** Number of spans currently open (0 once every stage unwound — what the
    fault-injection tests assert). *)
val open_spans : unit -> int

(* ---- counters ---- *)

type counter

(** Find-or-create the counter named [name] in the process-wide registry.
    Idempotent; the handle never needs re-interning. *)
val counter : string -> counter

val add : counter -> int -> unit

val incr : counter -> unit

val value : counter -> int

(* ---- histograms ---- *)

type histogram

val histogram : string -> histogram

val observe : histogram -> float -> unit

(** Cumulative-bucket view, Prometheus style: [(le, count_at_or_below)]
    pairs with a final [(infinity, count)]. *)
type hist_snapshot = {
  count : int;
  sum : float;
  minimum : float;  (** 0 when empty *)
  maximum : float;
  buckets : (float * int) list;
}

(* ---- snapshots ---- *)

(** Every registered counter with its current value, sorted by name
    (zero-valued ones included — registration is part of the registry's
    contract). *)
val counters : unit -> (string * int) list

val histograms : unit -> (string * hist_snapshot) list

(* ---- absorption (multi-process campaigns) ---- *)

(** Splice a forked worker's finished spans and counter deltas into this
    process's registry, so fleet-wide exports and heartbeat deltas see one
    registry. Spans are re-identified against the local id counter;
    parent links that point inside the absorbed batch are preserved and
    everything else becomes a root. No-op while disabled. *)
val absorb : spans:span list -> counters:(string * int) list -> unit

(** Copies of the registry's histograms that have observations — what a
    pool worker sends its parent. Later [observe] or {!reset} calls leave
    the copies unchanged. *)
val wire_histograms : unit -> histogram list

(** Merge {!wire_histograms} copies into the local registry by name:
    counts, sums and buckets add; min/max widen. No-op while disabled. *)
val absorb_histograms : histogram list -> unit

(** A position in the telemetry stream; see {!since}. *)
type mark

val mark : unit -> mark

(** Spans finished since the mark (start order) and per-counter deltas
    (non-zero only, sorted by name) — the per-task snapshot the campaign
    runner embeds in JSONL checkpoints and feeds to the heartbeat. *)
val since : mark -> span list * (string * int) list
