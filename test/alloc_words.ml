(* Heap words allocated so far by this domain, counted exactly: minor
   words from [Gc.minor_words], promoted and major words from
   [Gc.counters], as minor + major - promoted so a promoted word is not
   counted twice. [Gc.counters]' own minor count (and [Gc.allocated_bytes],
   built on it) adds the words allocated since the last minor collection
   at one eighth of their number on OCaml 5.1. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted
