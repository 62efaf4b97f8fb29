(** Exec.Ipc — length-prefixed, checksummed message framing over raw file
    descriptors: the wire format of the worker pool ({!Pool}).

    One frame = a 4-byte big-endian payload length, the payload's 16-byte
    MD5, then the payload: [Marshal.to_bytes v [No_sharing]]. Framing is
    carried by the length prefix alone, so payloads may hold any byte; the
    codec never scans for delimiters. All reads and writes retry on
    [EINTR] — a campaign's SIGINT handler must not corrupt a frame.

    [Marshal] is sound here because both ends of every pool pipe are forks
    of one executable: the reader's code is the writer's code, so a value
    reads back as the type it was written at. That makes the wire
    unsuitable for anything that outlives the process or crosses
    binaries; checkpoints, bundles, cache entries and quarantine files
    stay JSON. The checksum is what keeps a damaged frame from reaching
    [Marshal.from_bytes], which trusts its input and can corrupt the heap
    on bytes it did not write. *)

(** Refuse to allocate for a length prefix above this (64 MiB): a larger
    prefix means the stream is corrupt, not that the message is big. *)
val max_message : int

type 'a read_result =
  | Msg of 'a
  | Eof  (** clean close, or a peer that died between messages *)

exception
  Protocol_error of string
        (** short read mid-message, oversized prefix, checksum mismatch or
            undecodable payload — the stream is unusable after this *)

(** Write one framed message. The value must be marshalable: no closures
    (they raise [Invalid_argument]), no custom blocks without a
    serializer. The caller handles [Unix.EPIPE] (peer died); partial
    writes are completed internally.
    @raise Protocol_error when the payload exceeds {!max_message} *)
val write : Unix.file_descr -> 'a -> unit

(** Blocking read of one framed message. [Eof] only at a frame boundary;
    EOF mid-frame raises {!Protocol_error}. The result type is the
    caller's claim about what the peer wrote; like [Marshal], nothing
    checks it. *)
val read : Unix.file_descr -> 'a read_result

(** Deliberate frame damage, for the worker faults of {!Pool.run}. *)
type frame_fault =
  | Torn
      (** header promises the full payload, only half is written — the
          peer's read raises {!Protocol_error} once the stream closes *)
  | Corrupt
      (** correct length, payload bytes replaced — the checksum fails
          and the read raises {!Protocol_error} *)

(** [write_faulty fault fd v] writes [v]'s frame damaged per [fault].
    After [Torn] the stream is unusable; the caller is expected to close
    it (a faulty worker [_exit]s right after). *)
val write_faulty : frame_fault -> Unix.file_descr -> 'a -> unit
