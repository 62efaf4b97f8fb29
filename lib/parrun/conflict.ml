(* Cross-shard overlap detection over canonical address-range lists (see
   the .mli). Pure interval arithmetic: the shard counts are small (one
   per pool job), so a pairwise merge-sweep is plenty. *)

type ranges = (int * int) list

(* Downward, so the list builds in address order without a reverse. *)
let of_marks (marks : Bytes.t) ~bit : ranges =
  let has a = Char.code (Bytes.unsafe_get marks a) land bit <> 0 in
  let runs = ref [] in
  let a = ref (Bytes.length marks - 1) in
  while !a >= 0 do
    if has !a then begin
      let hi = !a + 1 in
      while !a >= 0 && has !a do
        decr a
      done;
      runs := (!a + 1, hi) :: !runs
    end
    else decr a
  done;
  !runs

(* Merge-sweep over two sorted disjoint lists: first common address. *)
let rec overlap (a : ranges) (b : ranges) : int option =
  match (a, b) with
  | [], _ | _, [] -> None
  | (lo1, hi1) :: ta, (lo2, hi2) :: tb ->
      if hi1 <= lo2 then overlap ta b
      else if hi2 <= lo1 then overlap a tb
      else Some (max lo1 lo2)

type conflict = { addr : int; writer : int; reader : int }

let conflict_to_string c =
  Printf.sprintf
    "read/write overlap at word %d between shard %d and shard %d (writer: shard %d)"
    c.addr c.writer c.reader c.writer

let detect ~(writes : ranges array) ~(reads : ranges array) ~n : conflict option
    =
  let found = ref None in
  let i = ref 0 in
  while !found = None && !i < n - 1 do
    let j = ref (!i + 1) in
    while !found = None && !j < n do
      let a = !i and b = !j in
      (* Only the earlier shard's writes against the later shard's exposed
         reads: the later shard forked from loop-entry state, so that read
         returned a value serial execution would have overwritten — the
         one way a shard can diverge. The reverse direction (an earlier
         shard reading what a later shard writes) is an anti-dependence
         the snapshot resolves exactly as serial order does: the reader
         sees the pre-loop bytes in both executions, so it commits. Two
         shards writing one word is an output dependence the in-order
         commit resolves: the later shard's write is applied last, as
         serial order leaves it. *)
      (match overlap writes.(a) reads.(b) with
      | Some addr -> found := Some { addr; writer = a; reader = b }
      | None -> ());
      incr j
    done;
    incr i
  done;
  !found
