(** The interval-commodity state machine shared by the general-graph
    broadcast protocol (Section 4), the unique-labeling protocol (Section 5)
    and the topology-mapping extension.

    A vertex's state is [pi = (alpha_bar, beta)] plus, in labeling mode, the
    label interval-union [alpha_0] it keeps for itself:

    - [alpha.(j)] is the interval-union sent so far on out-port [j];
    - [beta] is the cycle/label information to be flooded towards [t];
    - on the {e first} message carrying a non-empty interval-union the vertex
      performs the canonical partition of Definition 4.1 (in labeling mode,
      into [d+1] parts, keeping part 0);
    - later arrivals route their unseen part to the last out-port and move
      the already-seen part (a detected cycle) into [beta];
    - [beta] deltas are flooded on every out-port.

    All state components are monotonically increasing under set inclusion —
    the paper's state-monotonicity property — which {!invariant} checks. *)

type t = {
  initialized : bool;  (** Has the canonical partition been performed? *)
  alpha : Intervals.Iset.t array;  (** Per out-port, length = out-degree. *)
  beta : Intervals.Iset.t;
  label : Intervals.Iset.t;  (** Empty unless labeling mode initialized. *)
  seen_alpha : Intervals.Iset.t;
      (** Union of every received alpha.  At an internal vertex it equals
          [label] union every [alpha.(j)] (everything seen was passed on),
          and an arrival is split against it into new alpha and detected
          cycle. *)
  size : int;
      (** {!size_bits}: the encoded size of [alpha], [beta], [label] and
          [seen_alpha] plus 8 flag bits.  Derived, kept incrementally:
          [step] re-sizes only the sets it replaced. *)
}

type outgoing = {
  port : int;
  d_alpha : Intervals.Iset.t;  (** New-to-this-port alpha content. *)
  d_beta : Intervals.Iset.t;  (** New beta content. *)
}

val create : out_degree:int -> t
(** The common initial state [pi0]. *)

val step :
  assign_label:bool ->
  t ->
  alpha:Intervals.Iset.t ->
  beta:Intervals.Iset.t ->
  t * outgoing list
(** One application of [(f, g)].  Only ports with something new to say
    appear in the result (the paper's [g = phi] case). *)

val size_bits : t -> int
(** The state's size in bits, the [state_bits] of every protocol built on
    this core; O(1). *)

val accepting : t -> bool
(** The stopping predicate [S]: everything received or beta-flooded covers
    exactly [\[0,1)]. *)

val covered : t -> Intervals.Iset.t
(** [seen_alpha union beta], the quantity [S] tests. *)

val digest : t -> string
(** Canonical fingerprint of the whole state, for {!Runtime.Explore}. *)

val invariant : ?prev:t -> t -> bool
(** Structural invariants: [alpha.(j)] pairwise disjoint and disjoint from
    the label; at out-degree > 0, [seen_alpha] equal to the label union
    every [alpha.(j)]; [size]
    equal to the size summed from scratch; with
    [?prev], state-monotonicity w.r.t. that earlier state. *)
