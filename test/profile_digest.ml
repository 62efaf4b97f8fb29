(* A fingerprint of everything the profile listener records, per registered
   program: for every invocation its identity, iteration start stamps, end
   clock, memory conflicts in consumer order, RAW count, call mask and
   per-track counts, deltas and mispredicted iterations, plus the observed
   header-phi ranges.
   Floats are printed by bit pattern, so any change in what the listener
   computes shows as a changed digest. Runs stop at a fixed fuel cap: the
   profile of a truncated run is as well formed as a complete one. *)

let fuel = 5_000_000

let digest_of_profile (p : Loopa.Profile.profile) : string =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  add "total %d truncated %b\n" p.Loopa.Profile.total_cost p.Loopa.Profile.truncated;
  Array.iter
    (fun (inv : Loopa.Profile.inv) ->
      add "inv %d %s %d parent %d/%d clocks %d..%d deps %d mask %d\n"
        inv.Loopa.Profile.inv_id inv.Loopa.Profile.fname inv.Loopa.Profile.lid
        inv.Loopa.Profile.parent inv.Loopa.Profile.parent_iter
        inv.Loopa.Profile.start_clock inv.Loopa.Profile.end_clock
        inv.Loopa.Profile.n_mem_deps inv.Loopa.Profile.call_mask;
      add "iters";
      Ir.Vec.iter (fun s -> add " %d" s) inv.Loopa.Profile.iter_starts;
      add "\nconflicts";
      for i = 0 to inv.Loopa.Profile.n_conflicts - 1 do
        add " %d:%h:%d"
          (Loopa.Profile.conflict_iter inv i)
          (float_of_int (Loopa.Profile.conflict_delta inv i))
          (Loopa.Profile.conflict_prod inv i)
      done;
      add "\n";
      Array.iter
        (fun (tr : Loopa.Profile.reg_track) ->
          add "track %d %d/%d all %h mis %h iters" tr.Loopa.Profile.phi_id
            tr.Loopa.Profile.n_instances tr.Loopa.Profile.n_mispredicts
            tr.Loopa.Profile.max_delta_all tr.Loopa.Profile.max_delta_mispredict;
          Ir.Vec.iter (fun k -> add " %d" k) tr.Loopa.Profile.mispredict_iters;
          add "\n")
        inv.Loopa.Profile.tracks)
    p.Loopa.Profile.invs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.Loopa.Profile.phi_obs []
  |> List.sort compare
  |> List.iter (fun ((fname, phi), (lo, hi)) -> add "phi %s %d %Ld %Ld\n" fname phi lo hi);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [(program, [(static_prune, f profile)])] in registry order. Each profile
   is dropped once [f] has seen it. *)
let map_profiles (f : Loopa.Profile.profile -> 'a) : (string * (bool * 'a) list) list =
  List.map
    (fun (bm : Suites.Suite.benchmark) ->
      let ms = Loopa.Driver.prepare (Frontend.compile_exn bm.Suites.Suite.source) in
      ( bm.Suites.Suite.name,
        List.map
          (fun static_prune ->
            (static_prune, f (Loopa.Driver.profile_module ~fuel ~static_prune ms)))
          [ true; false ] ))
    (Suites.Suite.all ())

let prune_key static_prune = if static_prune then "prune" else "noprune"

(* JSON with one program per line, so a changed digest is a one-line diff
   that names its program. *)
let render digests : string =
  let b = Buffer.create 8192 in
  Printf.bprintf b "{\"fuel\": %d,\n \"programs\": {\n" fuel;
  List.iteri
    (fun i (name, ds) ->
      Printf.bprintf b "  %s: %s%s\n"
        (Util.Json.to_string (Util.Json.String name))
        (Util.Json.to_string
           (Util.Json.Obj
              (List.map (fun (sp, d) -> (prune_key sp, Util.Json.String d)) ds)))
        (if i + 1 < List.length digests then "," else ""))
    digests;
  Buffer.add_string b " }\n}\n";
  Buffer.contents b
