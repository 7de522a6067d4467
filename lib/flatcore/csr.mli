(** Compressed-sparse-row compilation of a {!Digraph.t}.

    [of_digraph] is O(n + m) and is meant to run {e once} per graph (the
    serving layer compiles its preloaded graphs at boot); every accessor
    below is O(1), and all but [in_degree] are int loads from the arrays.  The dense edge numbering is
    identical to {!Digraph.edge_index}, so per-edge arrays, fault plans and
    replay schedules are interchangeable between the classic and flat
    engines. *)

type t = private {
  g : Digraph.t;
  n : int;
  s : int;
  t : int;
  m : int;
  row : int array;  (** [n+1] offsets: out-edges of [u] are [row.(u) .. row.(u+1)-1]. *)
  head : int array;  (** Per dense edge: target vertex. *)
  tgt_port : int array;  (** Per dense edge: in-port at the target. *)
  src : int array;  (** Per dense edge: source vertex. *)
}

val of_digraph : Digraph.t -> t

val digraph : t -> Digraph.t
(** The representation it was compiled from (shared, not copied). *)

val n_vertices : t -> int
val n_edges : t -> int
val source : t -> int
val terminal : t -> int
val out_degree : t -> int -> int
val in_degree : t -> int -> int
val edge_index : t -> int -> int -> int
val edge_src : t -> int -> int
val edge_src_port : t -> int -> int
val edge_head : t -> int -> int
val edge_tgt_port : t -> int -> int
