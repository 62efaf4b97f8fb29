(* Cross-shard overlap detection over canonical address-range lists (see
   the .mli). Pure interval arithmetic: the shard counts are small (one
   per pool job), so a pairwise merge-sweep is plenty. *)

type ranges = (int * int) list

let normalize (rs : (int * int) list) : ranges =
  let rs = List.filter (fun (lo, hi) -> hi > lo) rs in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) rs in
  let rec merge = function
    | (lo1, hi1) :: (lo2, hi2) :: rest when lo2 <= hi1 ->
        merge ((lo1, max hi1 hi2) :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  merge sorted

let of_sorted_addrs (addrs : int list) : ranges =
  let rec build = function
    | [] -> []
    | a :: rest ->
        let rec run hi = function
          | x :: tl when x = hi -> run (hi + 1) tl
          | tl -> (hi, tl)
        in
        let hi, tl = run (a + 1) rest in
        (a, hi) :: build tl
  in
  build addrs

let cardinal (rs : ranges) = List.fold_left (fun n (lo, hi) -> n + hi - lo) 0 rs

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
