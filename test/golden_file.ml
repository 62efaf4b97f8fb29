(* A freshly rendered digest file must match its committed golden bit for
   bit. On a mismatch the fresh copy is written next to the test binary,
   ready to review and copy over the golden when a change is meant to alter
   it, and the failure lists the lines that changed. *)
let check ~name ~golden_path actual =
  let golden = In_channel.with_open_bin golden_path In_channel.input_all in
  if actual <> golden then begin
    let actual_path = name ^ ".actual.json" in
    Out_channel.with_open_bin actual_path (fun oc -> output_string oc actual);
    let lines s = String.split_on_char '\n' s in
    let changed =
      List.filter (fun l -> not (List.mem l (lines golden))) (lines actual)
    in
    Alcotest.failf "%s differ from %s (fresh copy: %s/%s):\n%s" name golden_path
      (Sys.getcwd ()) actual_path (String.concat "\n" changed)
  end
