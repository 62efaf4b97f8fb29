(* Runtime values and the flat word-addressed memory. Address 0 is the null
   sentinel; globals occupy [1 .. n]; the heap grows upward from there. Each
   word carries a tag byte beside an unboxed 8-byte payload, so the machine
   catches type confusion (a library bug, not a benchmark property) instead
   of silently reinterpreting. *)

type rv = Vint of int64 | Vfloat of float | Vbool of bool

let of_const = function
  | Ir.Types.Cint i -> Vint i
  | Ir.Types.Cfloat f -> Vfloat f
  | Ir.Types.Cbool b -> Vbool b

let rv_to_string = function
  | Vint i -> Int64.to_string i
  | Vfloat f -> Printf.sprintf "%.17g" f
  | Vbool b -> string_of_bool b

exception Runtime_error of string

let error fmt = Format.kasprintf (fun msg -> raise (Runtime_error msg)) fmt

(* Program-level faults: the executed program did something undefined. These
   are classified (the campaign runner maps them into its error taxonomy)
   as opposed to Runtime_error, which marks interpreter-invariant breakage. *)
type trap_kind = Div_by_zero | Out_of_bounds | Negative_alloc

let trap_kind_to_string = function
  | Div_by_zero -> "division by zero"
  | Out_of_bounds -> "out-of-bounds access"
  | Negative_alloc -> "negative allocation"

exception Trap of trap_kind * string

let trap kind fmt = Format.kasprintf (fun msg -> raise (Trap (kind, msg))) fmt

(* Resource budgets. Exhausting one is not an error: the machine unwinds
   cleanly (closing every open loop invocation and call frame in the event
   stream) and reports a truncated outcome the profile layer can still use. *)
type budget_kind = Fuel | Call_depth | Heap | Wall

let budget_kind_to_string = function
  | Fuel -> "fuel"
  | Call_depth -> "call-depth"
  | Heap -> "heap"
  | Wall -> "wall-clock"

exception Budget_stop of budget_kind

let as_int = function
  | Vint i -> i
  | v -> error "expected an int, got %s" (rv_to_string v)

let as_float = function
  | Vfloat f -> f
  | v -> error "expected a float, got %s" (rv_to_string v)

(* Word tags. A zero-filled word is the int 0. *)
let tag_int = '\000'

let tag_float = '\001'

let tag_bool = '\002'

type memory = {
  mutable tags : Bytes.t; (* one tag per word *)
  mutable data : Bytes.t; (* 8 payload bytes per word *)
  mutable brk : int; (* next free heap address *)
  limit : int; (* max words *)
  global_addrs : (string, int) Hashtbl.t;
}

let tag_of = function Vint _ -> tag_int | Vfloat _ -> tag_float | Vbool _ -> tag_bool

let bits_of = function
  | Vint i -> i
  | Vfloat f -> Int64.bits_of_float f
  | Vbool b -> if b then 1L else 0L

(* Room for [words] words: capacity doubles, capped at the limit, and the
   new bytes are zero, so every word past [brk] reads as the int 0. *)
let reserve mem words =
  let cap = Bytes.length mem.tags in
  if words > cap then begin
    let cap' = max words (min mem.limit (2 * cap)) in
    let grow b width =
      let b' = Bytes.make (cap' * width) '\000' in
      Bytes.blit b 0 b' 0 (Bytes.length b);
      b'
    in
    mem.tags <- grow mem.tags 1;
    mem.data <- grow mem.data 8
  end

let set_word mem a v =
  Bytes.unsafe_set mem.tags a (tag_of v);
  Bytes.set_int64_le mem.data (a lsl 3) (bits_of v)

let create ?(limit = 1 lsl 26) (globals : Ir.Func.global list) : memory =
  let mem =
    {
      tags = Bytes.empty;
      data = Bytes.empty;
      brk = 1 (* address 0: null *);
      limit;
      global_addrs = Hashtbl.create 16;
    }
  in
  reserve mem (List.length globals + 1);
  List.iter
    (fun (g : Ir.Func.global) ->
      let a = mem.brk in
      Hashtbl.replace mem.global_addrs g.Ir.Func.gname a;
      set_word mem a (of_const g.Ir.Func.ginit);
      mem.brk <- a + 1)
    globals;
  mem

let global_addr mem name =
  match Hashtbl.find_opt mem.global_addrs name with
  | Some a -> a
  | None -> error "unknown global @%s" name

let check_addr mem a =
  if a <= 0 || a >= mem.brk then
    trap Out_of_bounds "memory access out of bounds at address %d" a

let load mem a =
  check_addr mem a;
  let bits = Bytes.get_int64_le mem.data (a lsl 3) in
  let tag = Bytes.unsafe_get mem.tags a in
  if tag = tag_float then Vfloat (Int64.float_of_bits bits)
  else if tag = tag_bool then Vbool (bits <> 0L)
  else Vint bits

let store mem a v =
  check_addr mem a;
  set_word mem a v

(* Copy word [src]'s tag and payload to [dst], source checked first. *)
let copy_word mem ~src ~dst =
  check_addr mem src;
  check_addr mem dst;
  Bytes.unsafe_set mem.tags dst (Bytes.unsafe_get mem.tags src);
  Bytes.set_int64_le mem.data (dst lsl 3) (Bytes.get_int64_le mem.data (src lsl 3))

(* Allocate [size] zero-initialized words; returns the base address. The
   size is the guest's int64, compared as such: [brk + size] would
   overflow for a size near the top of the range. *)
let alloc mem (size : int64) =
  if size < 0L then trap Negative_alloc "alloc with negative size %Ld" size;
  if size > Int64.of_int (mem.limit - mem.brk) then raise (Budget_stop Heap);
  let size = Int64.to_int size and base = mem.brk in
  reserve mem (base + size);
  mem.brk <- base + size;
  base

let words_in_use mem = mem.brk
