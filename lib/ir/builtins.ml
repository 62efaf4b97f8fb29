(* Builtin ("library") functions callable from Looplang programs. Each
   carries the safety classification the fn0–fn3 ladder needs (paper Table
   II): pure builtins are callable under -fn1; thread-safe (re-entrant,
   argument-only effects) builtins additionally under -fn2; I/O and
   global-state builtins only under -fn3.

   These model the pre-compiled C library of the paper's setup: their
   *internal* execution time is not instrumented (paper §III-D) beyond a
   fixed cost, but their memory effects on program-visible arrays are
   reported to the conflict tracker.

   The [mem] field is the single source of truth for a builtin's
   program-visible memory footprint. The dependence analysis consumes it to
   decide whether a call inside a loop can alias loop accesses, and the
   interpreter enforces it: a builtin declared [No_mem] that performs a
   tracked memory access is a runtime error, so the spec and the
   implementation cannot drift apart. *)

open Types

type safety =
  | Pure (* read-only, no side effects: callable under -fn1 *)
  | Thread_safe (* re-entrant, writes only through its arguments: -fn2 *)
  | Io (* observable side effects in program order: -fn3 only *)
  | Global_state (* hidden mutable state (e.g. the rand seed): -fn3 only *)

type mem_effect =
  | No_mem (* touches no program-visible memory *)
  | Reads (* may read program arrays through its arguments *)
  | Reads_writes (* may read and write program arrays *)

type signature = { args : ty list; ret : ty option; safety : safety; mem : mem_effect }

let table : (string * signature) list =
  [
    ("print_int", { args = [ I64 ]; ret = None; safety = Io; mem = No_mem });
    ("print_float", { args = [ F64 ]; ret = None; safety = Io; mem = No_mem });
    ("print_char", { args = [ I64 ]; ret = None; safety = Io; mem = No_mem });
    (* Deterministic LCG random source with a hidden seed *)
    ("rand", { args = []; ret = Some I64; safety = Global_state; mem = No_mem });
    ("srand", { args = [ I64 ]; ret = None; safety = Global_state; mem = No_mem });
    (* libm subset *)
    ("sqrt", { args = [ F64 ]; ret = Some F64; safety = Pure; mem = No_mem });
    ("sin", { args = [ F64 ]; ret = Some F64; safety = Pure; mem = No_mem });
    ("cos", { args = [ F64 ]; ret = Some F64; safety = Pure; mem = No_mem });
    ("exp", { args = [ F64 ]; ret = Some F64; safety = Pure; mem = No_mem });
    ("log", { args = [ F64 ]; ret = Some F64; safety = Pure; mem = No_mem });
    ("pow", { args = [ F64; F64 ]; ret = Some F64; safety = Pure; mem = No_mem });
    (* memcpy/memset analogues: thread-safe, effects via arguments only;
       their word-level accesses are reported to the conflict tracker *)
    ( "arrcopy",
      { args = [ I64; I64; I64 ]; ret = Some I64; safety = Thread_safe; mem = Reads_writes } );
    ( "arrfill",
      {
        args = [ I64; I64; I64 ] (* fill value is i64 or f64 *);
        ret = Some I64;
        safety = Thread_safe;
        mem = Reads_writes;
      } );
  ]

(* Built once from [table]; as with [List.assoc_opt], the first entry for
   a name wins. Each binding holds its [Some], so a lookup allocates
   nothing. *)
let by_name =
  let h = Hashtbl.create 16 in
  List.iter (fun (n, s) -> if not (Hashtbl.mem h n) then Hashtbl.add h n (Some s)) table;
  h

let find name = try Hashtbl.find by_name name with Not_found -> None

let is_builtin name = find name <> None

let safety_name = function
  | Pure -> "pure"
  | Thread_safe -> "thread-safe"
  | Io -> "io"
  | Global_state -> "global-state"

let mem_effect_name = function
  | No_mem -> "no-mem"
  | Reads -> "reads"
  | Reads_writes -> "reads-writes"
