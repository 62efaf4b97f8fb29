(* Small statistics helpers for the experiment harness. *)

let geomean = function
  | [] -> 1.0
  | xs ->
      let n = List.length xs in
      let sum = List.fold_left (fun acc x -> acc +. log (Float.max x 1e-12)) 0.0 xs in
      exp (sum /. float_of_int n)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let minimum = function [] -> 0.0 | x :: xs -> List.fold_left Float.min x xs

let maximum = function [] -> 0.0 | x :: xs -> List.fold_left Float.max x xs

