(* Exporters over the Telemetry state (see the .mli). The Chrome trace
   format is the trace-event JSON of chrome://tracing and Perfetto: an
   object with a "traceEvents" list whose "X" (complete) events carry
   microsecond ts/dur; nesting is implied by time containment within one
   pid/tid, which our strictly stacked spans guarantee. *)

module Json = Util.Json

let us t = t *. 1e6

let span_event (s : Telemetry.span) : Json.t =
  let args =
    List.map (fun (k, v) -> (k, Json.String v)) s.Telemetry.attrs
    @ [ ("depth", Json.Int s.Telemetry.depth) ]
  in
  Json.Obj
    [
      ("name", Json.String s.Telemetry.name);
      ("cat", Json.String "loopa");
      ("ph", Json.String "X");
      ("ts", Json.Float (us s.Telemetry.start_s));
      ("dur", Json.Float (us s.Telemetry.dur_s));
      ("pid", Json.Int 1);
      ("tid", Json.Int 1);
      ("args", Json.Obj args);
    ]

let chrome_trace () : Json.t =
  let spans = Telemetry.spans () in
  let last_end =
    List.fold_left
      (fun acc (s : Telemetry.span) ->
        Float.max acc (s.Telemetry.start_s +. s.Telemetry.dur_s))
      0.0 spans
  in
  let counter_event =
    Json.Obj
      [
        ("name", Json.String "counters");
        ("cat", Json.String "loopa");
        ("ph", Json.String "i");
        ("s", Json.String "g");
        ("ts", Json.Float (us last_end));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Telemetry.counters ()))
        );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map span_event spans @ [ counter_event ]));
      ("displayTimeUnit", Json.String "ms");
    ]

let chrome_trace_string () = Json.to_string (chrome_trace ())

let write_chrome_trace path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (chrome_trace_string ());
      output_char oc '\n')

(* ---- Prometheus text format ---- *)

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Our registry names are dotted
   ("interp.mem.events"); dots and dashes map to underscores. *)
let sanitize name =
  String.map
    (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c
      | _ -> '_')
    name

(* Label values are free text in the exposition format, but backslash,
   double-quote and newline must be escaped (backslash-doubled, backslash-
   quote, backslash-n) or the line is unparseable — a span named after a
   Windows path or a quoted source snippet must not corrupt the dump. *)
let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_sample f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

(* Build identity, emitted as the conventional constant-1 info gauge so
   dashboards can join any series against version/revision. The revision
   comes from the environment (CI exports LOOPA_GIT_REV) because the build
   itself is hermetic. *)
let build_info =
  ref
    [
      ("version", "1.0.0");
      ( "git_rev",
        Option.value ~default:"unknown" (Sys.getenv_opt "LOOPA_GIT_REV") );
    ]

let set_build_info kvs = build_info := kvs

let aggregate_spans (spans : Telemetry.span list) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Telemetry.span) ->
      let n, t =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl s.Telemetry.name)
      in
      Hashtbl.replace tbl s.Telemetry.name (n + 1, t +. s.Telemetry.dur_s))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (na, (_, ta)) (nb, (_, tb)) ->
         match Float.compare tb ta with 0 -> compare na nb | c -> c)

let prometheus () : string =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "# TYPE loopa_build_info gauge";
  line "loopa_build_info{%s} 1"
    (String.concat ","
       (List.map
          (fun (k, v) ->
            Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label_value v))
          !build_info));
  List.iter
    (fun (name, v) ->
      let m = "loopa_" ^ sanitize name ^ "_total" in
      line "# TYPE %s counter" m;
      line "%s %d" m v)
    (Telemetry.counters ());
  List.iter
    (fun (name, (h : Telemetry.hist_snapshot)) ->
      let m = "loopa_" ^ sanitize name in
      line "# TYPE %s histogram" m;
      List.iter
        (fun (le, cum) ->
          (* skip empty leading buckets to keep the dump short; the +Inf
             bucket always appears so sum/count stay interpretable *)
          if cum > 0 || le = Float.infinity then
            line "%s_bucket{le=\"%s\"} %d" m
              (if le = Float.infinity then "+Inf" else float_sample le)
              cum)
        h.Telemetry.buckets;
      line "%s_sum %s" m (float_sample h.Telemetry.sum);
      line "%s_count %d" m h.Telemetry.count)
    (Telemetry.histograms ());
  (match aggregate_spans (Telemetry.spans ()) with
  | [] -> ()
  | aggs ->
      line "# TYPE loopa_span_seconds summary";
      List.iter
        (fun (name, (n, total)) ->
          line "loopa_span_seconds_sum{span=\"%s\"} %s"
            (escape_label_value name) (float_sample total);
          line "loopa_span_seconds_count{span=\"%s\"} %d"
            (escape_label_value name) n)
        aggs);
  Buffer.contents buf

let write_prometheus path =
  Out_channel.with_open_text path (fun oc -> output_string oc (prometheus ()))

(* ---- per-task snapshot (campaign JSONL) ---- *)

let snapshot_json ~spans ~counters : Json.t =
  Json.Obj
    [
      ( "spans",
        Json.Obj
          (List.map
             (fun (name, (n, total)) ->
               (name, Json.Obj [ ("n", Json.Int n); ("s", Json.Float total) ]))
             (aggregate_spans spans)) );
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters));
    ]
