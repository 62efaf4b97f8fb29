(* Length-prefixed, checksummed, marshalled frames over file descriptors
   (see the .mli). Both ends of every pool pipe are forks of one
   executable, so a value marshalled by one end reads back as the same
   type at the other. Blocking exact reads after the parent's select are
   fine: the writer always emits whole frames promptly. *)

let max_message = 64 * 1024 * 1024

type 'a read_result = Msg of 'a | Eof

exception Protocol_error of string

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

let write_all fd buf pos len =
  let written = ref pos in
  let stop = pos + len in
  while !written < stop do
    let n =
      restart_on_eintr (fun () -> Unix.write fd buf !written (stop - !written))
    in
    written := !written + n
  done

(* [read_all] returns how many bytes actually arrived: [len] normally,
   less only when EOF hit first (the caller decides whether a short count
   is a clean close or a torn frame). *)
let read_all fd buf len =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let n = restart_on_eintr (fun () -> Unix.read fd buf !got (len - !got)) in
    if n = 0 then eof := true else got := !got + n
  done;
  !got

(* No_sharing: a shard report is a long list of fresh cells, where the
   sharing table costs far more than it could save. *)
let payload_of v =
  let payload = Marshal.to_bytes v [ Marshal.No_sharing ] in
  let len = Bytes.length payload in
  if len > max_message then
    raise (Protocol_error (Printf.sprintf "message too large (%d bytes)" len));
  payload

(* The 20 bytes ahead of a payload: its length (4 bytes, big-endian),
   then its MD5. *)
let header_for payload =
  let header = Bytes.create 20 in
  Bytes.set_int32_be header 0 (Int32.of_int (Bytes.length payload));
  Bytes.blit_string (Digest.bytes payload) 0 header 4 16;
  header

let write fd v =
  let payload = payload_of v in
  write_all fd (header_for payload) 0 20;
  write_all fd payload 0 (Bytes.length payload)

type frame_fault = Torn | Corrupt

let write_faulty fault fd v =
  match fault with
  | Torn ->
      (* header promises the whole payload; deliver only half of it —
         the reader blocks until our close, then sees EOF mid-frame *)
      let payload = payload_of v in
      write_all fd (header_for payload) 0 20;
      write_all fd payload 0 (Bytes.length payload / 2)
  | Corrupt ->
      (* full-length frame whose payload fails its checksum *)
      let payload = payload_of v in
      write_all fd (header_for payload) 0 20;
      write_all fd (Bytes.make (Bytes.length payload) '\xff') 0
        (Bytes.length payload)

let read fd =
  let header = Bytes.create 4 in
  match read_all fd header 4 with
  | 0 -> Eof
  | n when n < 4 -> raise (Protocol_error "EOF inside a frame header")
  | _ ->
      let len = Int32.to_int (Bytes.get_int32_be header 0) land 0xffff_ffff in
      if len > max_message then
        raise
          (Protocol_error (Printf.sprintf "frame length %d exceeds limit" len));
      (* the checksum, then the payload *)
      let body = Bytes.create (16 + len) in
      if read_all fd body (16 + len) < 16 + len then
        raise (Protocol_error "EOF inside a frame payload");
      if Digest.subbytes body 16 len <> Bytes.sub_string body 0 16 then
        raise (Protocol_error "unparseable frame: checksum mismatch");
      (try Msg (Marshal.from_bytes body 16)
       with Failure m | Invalid_argument m ->
         raise (Protocol_error ("unparseable frame: " ^ m)))
