(** The flat core: CSR graph compilation and the arena-message engine.

    - {!Csr} — four-int-array compressed-sparse-row compilation of a
      {!Digraph.t}, built once per graph, with the dense edge numbering of
      [Digraph.edge_index];
    - {!Engine} — an {!Runtime.Engine_sig.S}-conforming engine whose
      reports and deterministic Obs counters are byte-for-byte identical
      to {!Runtime.Engine}: its generic path is the classic engine's own
      delivery loop over the CSR arrays and an arena of encoded message
      slots, and a probe-certified fast path runs flood-shaped protocols.

    Engine selection is a value of {!type:kind}; the CLI and the serving
    layer thread it through an [--engine] knob. *)

module Csr = Csr
module Engine = Engine

type kind = Classic | Flat

let kind_of_string = function
  | "classic" -> Some Classic
  | "flat" -> Some Flat
  | _ -> None

let string_of_kind = function Classic -> "classic" | Flat -> "flat"
