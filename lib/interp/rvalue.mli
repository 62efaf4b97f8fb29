(** Runtime values and the flat word-addressed memory. Address 0 is the null
    sentinel; globals occupy [1..n]; the heap grows upward (bump allocation,
    no free — benchmarks are one-shot). Each word carries a tag byte beside
    an unboxed payload, so type confusion is caught rather than
    reinterpreted. *)

type rv = Vint of int64 | Vfloat of float | Vbool of bool

(** A compile-time constant as a runtime value. *)
val of_const : Ir.Types.const -> rv

val rv_to_string : rv -> string

(** Interpreter-invariant breakage (type confusion, malformed IR reaching
    execution): a library bug, not a property of the executed program. *)
exception Runtime_error of string

(** Raise {!Runtime_error} with a formatted message. *)
val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Program-level faults — undefined behaviour of the executed program,
    classified so error paths stay machine-readable. *)
type trap_kind = Div_by_zero | Out_of_bounds | Negative_alloc

val trap_kind_to_string : trap_kind -> string

exception Trap of trap_kind * string

(** Raise {!Trap} with a formatted message. *)
val trap : trap_kind -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Resource budgets. Exhaustion is not an error: the machine unwinds
    cleanly (closing open loop invocations and call frames in the event
    stream) and reports a truncated outcome. *)
type budget_kind = Fuel | Call_depth | Heap | Wall

val budget_kind_to_string : budget_kind -> string

exception Budget_stop of budget_kind

(** @raise Runtime_error unless the value has the expected shape. *)
val as_int : rv -> int64

val as_float : rv -> float

(** A value's 8-byte payload: the int64 itself, a float's bit pattern, or
    0/1 for a bool. *)
val bits_of : rv -> int64

(** Word tags: a word's tag records the type of the value last stored in
    it. A never-written word is zero-filled, so it reads as the int 0. *)
val tag_int : char

val tag_float : char

val tag_bool : char

(** The flat memory. Word [a]'s tag is byte [a] of [tags]; its payload is
    bytes [8a .. 8a + 7] of [data], little-endian ({!bits_of}). Valid
    addresses are [1 .. brk - 1]. Both buffers grow by doubling, capped at
    [limit] words, and every byte past [brk] is zero. The record is
    exposed so the machine's typed accessors compile inline. *)
type memory = private {
  mutable tags : Bytes.t;
  mutable data : Bytes.t;
  mutable brk : int;
  limit : int;
  global_addrs : (string, int) Hashtbl.t;
}

(** [limit] caps total words (default 2^26). Globals get addresses in
    declaration order starting at 1. *)
val create : ?limit:int -> Ir.Func.global list -> memory

(** @raise Runtime_error for unknown names. *)
val global_addr : memory -> string -> int

(** A word boxed by its tag.
    @raise Trap ([Out_of_bounds]) on out-of-bounds (including null). *)
val load : memory -> int -> rv

(** Store a value, tagging the word by its constructor.
    @raise Trap ([Out_of_bounds]) on out-of-bounds (including null). *)
val store : memory -> int -> rv -> unit

(** Copy a word's tag and payload; [src] is bounds-checked before [dst].
    @raise Trap ([Out_of_bounds]) on out-of-bounds (including null). *)
val copy_word : memory -> src:int -> dst:int -> unit

(** Allocate zero-initialized words; returns the base address. The size
    is a guest word, checked over its whole int64 range.
    @raise Trap ([Negative_alloc]) on negative size
    @raise Budget_stop ([Heap]) when the words would pass the limit *)
val alloc : memory -> int64 -> int

val words_in_use : memory -> int
