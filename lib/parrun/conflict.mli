(** Parent-side cross-shard conflict detection for guarded parallel loop
    execution.

    Each shard of a sharded loop invocation reports the memory it wrote
    and the memory it {e exposed-read} (read before writing it itself) as
    sorted disjoint address ranges, scanned from its mark bytes. A
    conflict is an {e earlier} shard's write overlapping a {e later}
    shard's exposed read: the later shard forked from loop-entry state,
    so that read returned bytes the serial execution would already have
    overwritten — a loop-carried flow the static Proven_doall verdict
    claimed away. The commit is abandoned, the loop is re-executed
    serially, and the verdict is quarantined.

    The reverse read/write order — an earlier shard reading an address
    only {e later} shards write — is {e not} a conflict: it is an
    anti-dependence, and the fork snapshot resolves it exactly as serial
    iteration order does (the reader sees the pre-loop bytes in both
    executions, because every write to that address belongs to a later
    iteration). Loops like a range-proven forward gather
    ([buf\[i\] += f(buf\[i + off\])] with [off >= 1]) are genuinely
    DOALL and must commit, not quarantine.

    Nor is a write/write overlap: the commit applies the shards' write
    lists in round and shard order, so the later shard's value is the one
    left in memory, as in serial order. *)

(** Sorted, disjoint, half-open [\[lo, hi)] address ranges. *)
type ranges = (int * int) list

(** [of_marks marks ~bit] is the canonical {!ranges} of the addresses
    [a] whose mark byte [Bytes.get marks a] has [bit] set: one scan, in
    address order, consecutive addresses coalesced into one range. *)
val of_marks : Bytes.t -> bit:int -> ranges

(** First overlapping address of two canonical range lists, if any. *)
val overlap : ranges -> ranges -> int option

type conflict = {
  addr : int;  (** first overlapping address found *)
  writer : int;  (** the earlier shard, which wrote [addr] *)
  reader : int;  (** the later shard, which exposed-read [addr] *)
}

val conflict_to_string : conflict -> string

(** Check each {e earlier} shard's write set against each {e later}
    shard's exposed-read set, among shards [0 .. n-1]. Deterministic: the
    lowest-indexed pair wins. Arrays are indexed by shard; entries past
    [n] are ignored. *)
val detect : writes:ranges array -> reads:ranges array -> n:int -> conflict option
