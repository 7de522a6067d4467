module Is = Intervals.Iset

type t = {
  initialized : bool;
  alpha : Is.t array;
  beta : Is.t;
  label : Is.t;
  seen_alpha : Is.t;
  size : int;
}

type outgoing = { port : int; d_alpha : Is.t; d_beta : Is.t }

(* Encoded size of the state's sets, plus one byte of flags. *)
let size_of ~alpha ~beta ~label ~seen_alpha =
  Array.fold_left
    (fun acc a -> acc + Is.size_bits a)
    (Is.size_bits beta + Is.size_bits label + Is.size_bits seen_alpha + 8)
    alpha

(* [size] after [old] is replaced by [now]; an untouched set is physically
   the old one and costs nothing. *)
let resize size old now =
  if old == now then size else size - Is.size_bits old + Is.size_bits now

let create ~out_degree =
  let alpha = Array.make out_degree Is.empty in
  {
    initialized = false;
    alpha;
    beta = Is.empty;
    label = Is.empty;
    seen_alpha = Is.empty;
    size = size_of ~alpha ~beta:Is.empty ~label:Is.empty ~seen_alpha:Is.empty;
  }

let size_bits state = state.size

(* Flood a beta delta on every port (no alpha news anywhere). *)
let beta_flood_sends d d_beta =
  if Is.is_empty d_beta then []
  else List.init d (fun port -> { port; d_alpha = Is.empty; d_beta })

let step ~assign_label state ~alpha:alpha' ~beta:beta' =
  let d = Array.length state.alpha in
  let seen_alpha = Is.union state.seen_alpha alpha' in
  if d = 0 then begin
    (* Terminal-like vertex: absorb.  In labeling mode the first non-empty
       arrival doubles as its (whole) label. *)
    let label =
      if assign_label && (not state.initialized) && not (Is.is_empty alpha')
      then alpha'
      else state.label
    in
    let initialized = state.initialized || not (Is.is_empty alpha') in
    let beta = Is.union state.beta beta' in
    let size = resize state.size state.beta beta in
    let size = resize size state.label label in
    let size = resize size state.seen_alpha seen_alpha in
    ({ state with initialized; beta; label; seen_alpha; size }, [])
  end
  else if (not state.initialized) && not (Is.is_empty alpha') then begin
    (* First real commodity: canonical partition (Definition 4.1). *)
    let parts = Is.canonical_partition alpha' (if assign_label then d + 1 else d) in
    let label, port_parts =
      if assign_label then
        match parts with
        | lbl :: rest -> (lbl, Array.of_list rest)
        | [] -> assert false
      else (Is.empty, Array.of_list parts)
    in
    (* In labeling mode the label is immediately beta-flooded (Section 5:
       beta'' = beta' union alpha_0), so the terminal can account for it. *)
    let beta = Is.union (Is.union state.beta beta') label in
    let d_beta = Is.diff beta state.beta in
    let sends =
      List.init d (fun port ->
          { port; d_alpha = port_parts.(port); d_beta })
    in
    (* Label and port parts partition alpha' = seen_alpha. *)
    ( { initialized = true; alpha = port_parts; beta; label; seen_alpha;
        size = size_of ~alpha:port_parts ~beta ~label ~seen_alpha },
      sends )
  end
  else if not state.initialized then begin
    (* Beta-only traffic before initialization: merge and relay. *)
    let beta = Is.union state.beta beta' in
    let d_beta = Is.diff beta state.beta in
    let size = resize state.size state.beta beta in
    let size = resize size state.seen_alpha seen_alpha in
    ({ state with beta; seen_alpha; size }, beta_flood_sends d d_beta)
  end
  else begin
    (* Initialized: unseen alpha continues on the last port; already-seen
       alpha is a detected cycle and joins beta (Section 4's f).  At an
       internal vertex everything seen has been passed on, so [seen_alpha]
       is exactly the label plus every port's alpha. *)
    let new_alpha = Is.diff alpha' state.seen_alpha in
    let cycles = Is.inter alpha' state.seen_alpha in
    let beta = Is.union (Is.union state.beta beta') cycles in
    let d_beta = Is.diff beta state.beta in
    let last = d - 1 in
    let alpha = Array.copy state.alpha in
    alpha.(last) <- Is.union alpha.(last) new_alpha;
    let sends =
      if Is.is_empty d_beta then
        if Is.is_empty new_alpha then []
        else [ { port = last; d_alpha = new_alpha; d_beta = Is.empty } ]
      else
        List.init d (fun port ->
            { port; d_alpha = (if port = last then new_alpha else Is.empty); d_beta })
    in
    let size = resize state.size state.alpha.(last) alpha.(last) in
    let size = resize size state.beta beta in
    let size = resize size state.seen_alpha seen_alpha in
    ({ state with alpha; beta; seen_alpha; size }, sends)
  end

(* Canonical fingerprint for the model checker: every field is behavioral
   ([seen_alpha] gates cycle detection at internal vertices and feeds
   [covered] at absorbing ones; [alpha] is what the next arrival extends).
   [Is.to_string] prints the normal form, so equal sets print equally. *)
let digest state =
  let c = Runtime.Canonical.create () in
  Runtime.Canonical.add_bool c state.initialized;
  Runtime.Canonical.add_int c (Array.length state.alpha);
  Array.iter (fun a -> Runtime.Canonical.add_string c (Is.to_string a)) state.alpha;
  Runtime.Canonical.add_string c (Is.to_string state.beta);
  Runtime.Canonical.add_string c (Is.to_string state.label);
  Runtime.Canonical.add_string c (Is.to_string state.seen_alpha);
  Runtime.Canonical.contents c

let covered state = Is.union state.seen_alpha state.beta

let accepting state = Is.is_unit (covered state)

let invariant ?prev state =
  let d = Array.length state.alpha in
  let pairwise_disjoint =
    let ok = ref true in
    for i = 0 to d - 1 do
      if not (Is.disjoint state.alpha.(i) state.label) then ok := false;
      for j = i + 1 to d - 1 do
        if not (Is.disjoint state.alpha.(i) state.alpha.(j)) then ok := false
      done
    done;
    !ok
  in
  let monotone =
    match prev with
    | None -> true
    | Some p ->
        Array.length p.alpha = d
        && Array.for_all2 (fun a b -> Is.subset a b) p.alpha state.alpha
        && Is.subset p.beta state.beta
        && Is.subset p.label state.label
        && Is.subset p.seen_alpha state.seen_alpha
        && (p.initialized <= state.initialized)
  in
  let seen_exact =
    d = 0
    || Is.equal state.seen_alpha
         (Array.fold_left Is.union state.label state.alpha)
  in
  let size_exact =
    state.size
    = size_of ~alpha:state.alpha ~beta:state.beta ~label:state.label
        ~seen_alpha:state.seen_alpha
  in
  pairwise_disjoint && seen_exact && size_exact && monotone
