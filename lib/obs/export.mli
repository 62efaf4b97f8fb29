(** Telemetry exporters: Chrome trace-event JSON (loadable in
    [chrome://tracing] / Perfetto), a Prometheus-style text dump, and the
    compact JSON snapshot embedded per task in campaign JSONL checkpoints.
    All read the process-wide {!Telemetry} state; all emission goes through
    the shared [Util.Json] codec — no second JSON printer. *)

(** The recorded spans as a Chrome trace: one complete ("X") event per span
    (microsecond timestamps on the telemetry clock), plus one instant event
    carrying the final counter values. *)
val chrome_trace : unit -> Util.Json.t

val chrome_trace_string : unit -> string

val write_chrome_trace : string -> unit

(** Escape a Prometheus label value per the text exposition format:
    backslash is doubled, double-quote gains a backslash, newline becomes
    backslash-n. *)
val escape_label_value : string -> string

(** Override the [loopa_build_info] labels (defaults:
    [version="1.0.0"], [git_rev] from the [LOOPA_GIT_REV] environment
    variable or ["unknown"]). *)
val set_build_info : (string * string) list -> unit

(** A constant [loopa_build_info{version=..,git_rev=..} 1] gauge, counters
    as [loopa_<name>_total], histograms as [_bucket]/[_sum]/[_count]
    families, and per-span-name duration aggregates as
    [loopa_span_seconds{span="..."}] sum/count pairs — one sample per line,
    [# TYPE] comments included. Label values are escaped with
    {!escape_label_value}. *)
val prometheus : unit -> string

val write_prometheus : string -> unit

(** [(span name, (count, total seconds))] over a span list, sorted by
    total descending — the aggregate the snapshot and BENCH emitters use. *)
val aggregate_spans :
  Telemetry.span list -> (string * (int * float)) list

(** Compact per-task snapshot: [{"spans":{name:{"n":..,"s":..}..},
    "counters":{name:delta..}}]. *)
val snapshot_json :
  spans:Telemetry.span list -> counters:(string * int) list -> Util.Json.t
