(* Compressed-sparse-row compilation of a port-numbered network.

   Built once per graph in O(n + m): four int arrays replace the per-vertex
   adjacency arrays of tuples, so the engine's hot path — edge index to
   (source, target, ports) — is four int loads with no pointer chasing and
   no tuple allocation.  The dense edge numbering is {e identical} to
   [Digraph.edge_index] (out-edges of vertex 0, then vertex 1, ...), which
   is what makes per-edge reports, fault plans, churn clocks and replay
   schedules carry over between engines unchanged.

   The original [Digraph.t] rides along: in-degrees and structure queries
   (SCC, reachability, canonicalization) stay on the pointer
   representation. *)

type t = {
  g : Digraph.t;  (* the source representation, for structure queries *)
  n : int;
  s : int;
  t : int;
  m : int;
  row : int array;  (* n+1: out-edges of u are row.(u) .. row.(u+1)-1 *)
  head : int array;  (* m: target vertex of dense edge e *)
  tgt_port : int array;  (* m: in-port of head.(e) the edge lands on *)
  src : int array;  (* m: source vertex (e - row.(src) is the out-port) *)
}

let of_digraph g =
  let n = Digraph.n_vertices g in
  let m = Digraph.n_edges g in
  let row = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v) + Digraph.out_degree g v
  done;
  let head = Array.make m 0 in
  let tgt_port = Array.make m 0 in
  let src = Array.make m 0 in
  for u = 0 to n - 1 do
    let base = row.(u) in
    Digraph.iter_out g u (fun j w ->
        head.(base + j) <- w;
        src.(base + j) <- u)
  done;
  (* Port permutation via the in-adjacency: v's i-th in-edge is u's j-th
     out-edge, i.e. dense edge row.(u)+j — O(1) per edge, where the naive
     [out_port_target_port] walk would be O(in_degree). *)
  for v = 0 to n - 1 do
    for i = 0 to Digraph.in_degree g v - 1 do
      let u, j = Digraph.in_origin g v i in
      tgt_port.(row.(u) + j) <- i
    done
  done;
  {
    g;
    n;
    s = Digraph.source g;
    t = Digraph.terminal g;
    m;
    row;
    head;
    tgt_port;
    src;
  }

let digraph c = c.g
let n_vertices c = c.n
let n_edges c = c.m
let source c = c.s
let terminal c = c.t
let out_degree c v = c.row.(v + 1) - c.row.(v)
let in_degree c v = Digraph.in_degree c.g v
let edge_index c u j = c.row.(u) + j
let edge_src c e = c.src.(e)
let edge_src_port c e = e - c.row.(c.src.(e))
let edge_head c e = c.head.(e)
let edge_tgt_port c e = c.tgt_port.(e)
