(* Dependence explorer: peek inside the compile-time component. Classifies
   every loop-header phi of a program (IV / reduction / non-computable, the
   paper's Table-I register categories) and shows the canonicalized loops.

     dune exec examples/dependence_explorer.exe [-- <file-or-benchmark>]
*)

let default_program =
  {|
fn main() -> int {
  var a: int[] = new int[100];
  var sum: int = 0;        // reduction accumulator
  var walk: int = 1;       // memory-fed: non-computable, unpredictable
  var tri: int = 0;        // triangular numbers: polynomial, computable
  for (var i: int = 0; i < 99; i = i + 1) {   // canonical induction variable
    a[i] = i * 2;
    sum = sum + a[i];
    walk = a[(walk * 17 + i) % 100];
    tri = tri + i;
  }
  print_int(sum + walk + tri);
  return 0;
}
|}

let source () =
  if Array.length Sys.argv > 1 then
    let target = Sys.argv.(1) in
    match Suites.Suite.find target with
    | Some b -> b.Suites.Suite.source
    | None -> In_channel.with_open_text target In_channel.input_all
  else default_program

let () =
  let m = Frontend.compile_exn (source ()) in
  let ms = Loopa.Driver.prepare m in
  Hashtbl.iter
    (fun fname (fs : Loopa.Classify.func_static) ->
      if Array.length fs.Loopa.Classify.loops > 0 then begin
        Printf.printf "function @%s%s\n" fname
          (if fs.Loopa.Classify.pure then " (pure)" else "");
        Array.iter
          (fun (ls : Loopa.Classify.loop_static) ->
            Printf.printf "  loop at bb%d (depth %d)%s\n" ls.Loopa.Classify.header
              ls.Loopa.Classify.depth
              (match ls.Loopa.Classify.parent with
              | Some p -> Printf.sprintf " inside loop #%d" p
              | None -> "");
            Array.iter
              (fun (pi : Loopa.Classify.phi_info) ->
                Printf.printf "    register LCD %%%d: %s%s\n" pi.Loopa.Classify.phi_id
                  (Loopa.Classify.phi_class_name pi.Loopa.Classify.cls)
                  (match pi.Loopa.Classify.latch_def with
                  | Some d -> Printf.sprintf " (next value produced by %%%d)" d
                  | None -> ""))
              ls.Loopa.Classify.phis)
          fs.Loopa.Classify.loops
      end)
    ms.Loopa.Classify.funcs;
  (* How each class constrains each execution model, on the live program. *)
  let a = { Loopa.Driver.ms; profile = Loopa.Driver.profile_module ms } in
  print_newline ();
  List.iter
    (fun cfg ->
      let r = Loopa.Driver.evaluate a cfg in
      Printf.printf "%-28s -> %.2fx\n" (Loopa.Config.name cfg) r.Loopa.Evaluate.speedup)
    [
      Loopa.Config.of_string "reduc0-dep0-fn0 PDOALL";
      Loopa.Config.of_string "reduc1-dep0-fn0 PDOALL";
      Loopa.Config.of_string "reduc1-dep2-fn0 PDOALL";
      Loopa.Config.of_string "reduc1-dep3-fn0 PDOALL";
      Loopa.Config.of_string "reduc1-dep1-fn0 HELIX";
    ]
