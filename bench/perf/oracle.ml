(* Output oracle. Campaign results are compared with golden digests taken
   at the commit that introduced the benchmark; the synthetic guarded-run
   kernels are compared with closed forms computed here in Int64
   arithmetic, independently of the interpreter. *)

let digest_scores ~status ~clock (scores : Campaign.Runner.score list) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%s|%d" status clock);
  List.iter
    (fun (s : Campaign.Runner.score) ->
      Buffer.add_string b
        (Printf.sprintf "|%s:%Lx:%Lx"
           (Loopa.Config.name s.Campaign.Runner.config)
           (Int64.bits_of_float s.Campaign.Runner.speedup)
           (Int64.bits_of_float s.Campaign.Runner.coverage_pct)))
    scores;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_output output = Digest.to_hex (Digest.string output)

(* [Ok (status class, clock, scores digest)] for a scored result. *)
let summarize (r : Campaign.Runner.result) =
  match r.Campaign.Runner.status with
  | Campaign.Runner.Errored e -> Error (Campaign.Runner.error_to_string e)
  | (Campaign.Runner.Completed scores | Campaign.Runner.Truncated (_, scores))
    as st ->
      let status = Campaign.Runner.status_class st in
      let clock = r.Campaign.Runner.clock in
      Ok (status, clock, digest_scores ~status ~clock scores)

let read_json path =
  match
    Util.Json.of_string (In_channel.with_open_bin path In_channel.input_all)
  with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* The golden file maps a section ("campaign" at default budgets, "rerun"
   at the rerun workload's budgets) to programs to expected fields. *)
let field golden ~section name key =
  Option.bind (Util.Json.member section golden) (fun s ->
      Option.bind (Util.Json.member name s) (Util.Json.member key))

let expect decode show golden ~section name key got =
  match Option.bind (field golden ~section name key) decode with
  | None -> Some (Printf.sprintf "%s: no golden %s.%s" name section key)
  | Some want when want <> got ->
      Some
        (Printf.sprintf "%s: %s.%s is %s, golden %s" name section key (show got)
           (show want))
  | Some _ -> None

let expect_str = expect Util.Json.to_str Fun.id

let expect_int = expect Util.Json.to_int string_of_int

(* First mismatch between a campaign result and its golden entry. *)
let check_result golden ~section name r =
  match summarize r with
  | Error e -> Some (Printf.sprintf "%s: errored: %s" name e)
  | Ok (status, clock, scores) ->
      List.find_map Fun.id
        [
          expect_str golden ~section name "status" status;
          expect_int golden ~section name "clock" clock;
          expect_str golden ~section name "scores" scores;
        ]

let check_output golden ~section name ~clock output =
  List.find_map Fun.id
    [
      expect_int golden ~section name "clock" clock;
      expect_str golden ~section name "output" (digest_output output);
    ]

(* ---- synthetic guarded-run kernels ---- *)

type kernel = Reduce | Map

let kernel_name = function Reduce -> "reduce" | Map -> "map"

let kernel_of_name = function
  | "reduce" -> Some Reduce
  | "map" -> Some Map
  | _ -> None

(* The kernels of the guarded-parallel bench section, sized by [n]. *)
let kernel_source k n =
  match k with
  | Reduce ->
      Printf.sprintf
        {|fn main() -> int {
  var n: int = %d;
  var a: int[] = new int[n];
  for (var i: int = 0; i < n; i = i + 1) { a[i] = i * 2654435761 + 17; }
  var s: int = 0;
  for (var i: int = 0; i < n; i = i + 1) { s = s + a[i] * a[i]; }
  print_int(s);
  return 0;
}
|}
        n
  | Map ->
      Printf.sprintf
        {|fn main() -> int {
  var n: int = %d;
  var a: int[] = new int[n];
  var b: int[] = new int[n];
  for (var i: int = 0; i < n; i = i + 1) { a[i] = i * 31 + 7; }
  for (var i: int = 0; i < n; i = i + 1) { b[i] = a[i] * a[i] + a[i] / 3; }
  print_int(b[n - 1]);
  return 0;
}
|}
        n

(* What the kernel prints (print_int ends its line). Reduce: the sum over
   i < n of (c*i + d)^2 mod 2^64 = c^2 S2 + 2cd S1 + d^2 n with
   S1 = n(n-1)/2 and S2 = (n-1)n(2n-1)/6, both exact in native ints for the
   sizes used. Map: b[n-1] for a = 31(n-1) + 7. *)
let kernel_output k n =
  let v =
    match k with
    | Reduce ->
        let c = 2654435761L and d = 17L in
        let s1 = n * (n - 1) / 2 and s2 = (n - 1) * n * ((2 * n) - 1) / 6 in
        Int64.(
          add
            (add (mul (mul c c) (of_int s2)) (mul (mul 2L (mul c d)) (of_int s1)))
            (mul (mul d d) (of_int n)))
    | Map ->
        let a = Int64.of_int ((31 * (n - 1)) + 7) in
        Int64.(add (mul a a) (div a 3L))
  in
  Int64.to_string v ^ "\n"
