(* Finite Context Method predictor (Sazeides & Smith, MICRO'97): hashes the
   last [order] values into a context and predicts the value that followed
   that context last time.

   The context hash is masked to [table_bits] bits, so distinct contexts
   collide on one entry exactly as they would in a dense table of
   [2^table_bits] slots. Only the entries a stream actually writes are
   stored, keyed by that masked index: one LCD's stream touches a handful
   of contexts, and a predictor is created per tracked LCD per loop
   invocation. *)

let default_order = 2

let default_table_bits = 12

let create ?(order = default_order) ?(table_bits = default_table_bits) () :
    Predictor.t =
  if order < 1 then invalid_arg "Fcm.create: order must be at least 1";
  let mask = (1 lsl table_bits) - 1 in
  let table : (int, int64) Hashtbl.t = Hashtbl.create 8 in
  (* the last [order] values, newest first; [seen] of them are valid *)
  let history = Array.make order 0L in
  let seen = ref 0 in
  (* masked hash of the full history, -1 until [order] values were seen *)
  let ctx = ref (-1) in
  let hash_history () =
    let acc = ref 5381 in
    for i = 0 to order - 1 do
      acc :=
        Int64.to_int
          (Int64.logand
             (Int64.mul (Int64.logxor history.(i) (Int64.of_int !acc)) 0x9E3779B97F4A7C15L)
             Int64.max_int)
        land mask
    done;
    !acc
  in
  {
    Predictor.name = "fcm-" ^ string_of_int order;
    predict = (fun () -> if !ctx < 0 then None else Hashtbl.find_opt table !ctx);
    train =
      (fun v ->
        if !ctx >= 0 then Hashtbl.replace table !ctx v;
        for i = order - 1 downto 1 do
          history.(i) <- history.(i - 1)
        done;
        history.(0) <- v;
        if !seen < order then incr seen;
        if !seen = order then ctx := hash_history ());
    reset =
      (fun () ->
        Hashtbl.reset table;
        seen := 0;
        ctx := -1);
  }
