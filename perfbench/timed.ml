(* The traced run's timing functor.

   [Make (P) (C)] is [P] with every callback the engines make timed into
   the cell [C.c]: calls, self time and minor words for [receive],
   [state_bits], [encode] and [decode], and plain time for the rest, so
   an engine's own time is its run wall minus [callback_ns].  Values pass
   through untouched (physical equality included, which the flat engine's
   flood certificate relies on), so a traced report must equal the
   untraced one field for field. *)

type cell = {
  mutable recv_calls : int;
  mutable recv_ns : int;
  mutable recv_words : int;
  mutable sb_calls : int;
  mutable sb_ns : int;
  mutable enc_calls : int;
  mutable enc_ns : int;
  mutable dec_calls : int;
  mutable dec_ns : int;
  mutable other_ns : int;
      (* initial_state, root_emit, accepting, equal_message *)
}

let cell () =
  {
    recv_calls = 0;
    recv_ns = 0;
    recv_words = 0;
    sb_calls = 0;
    sb_ns = 0;
    enc_calls = 0;
    enc_ns = 0;
    dec_calls = 0;
    dec_ns = 0;
    other_ns = 0;
  }

let add ~into c =
  into.recv_calls <- into.recv_calls + c.recv_calls;
  into.recv_ns <- into.recv_ns + c.recv_ns;
  into.recv_words <- into.recv_words + c.recv_words;
  into.sb_calls <- into.sb_calls + c.sb_calls;
  into.sb_ns <- into.sb_ns + c.sb_ns;
  into.enc_calls <- into.enc_calls + c.enc_calls;
  into.enc_ns <- into.enc_ns + c.enc_ns;
  into.dec_calls <- into.dec_calls + c.dec_calls;
  into.dec_ns <- into.dec_ns + c.dec_ns;
  into.other_ns <- into.other_ns + c.other_ns

(* The cell with its times multiplied by [f] (a calibration factor). *)
let scaled c f =
  let t ns = int_of_float (float_of_int ns *. f) in
  {
    c with
    recv_ns = t c.recv_ns;
    sb_ns = t c.sb_ns;
    enc_ns = t c.enc_ns;
    dec_ns = t c.dec_ns;
    other_ns = t c.other_ns;
  }

let callback_ns c = c.recv_ns + c.sb_ns + c.enc_ns + c.dec_ns + c.other_ns
let ns = Stats.now_ns

module Make
    (P : Runtime.Protocol_intf.PROTOCOL)
    (C : sig
      val c : cell
    end) :
  Runtime.Protocol_intf.PROTOCOL
    with type state = P.state
     and type message = P.message = struct
  include P

  let c = C.c

  let other t0 = c.other_ns <- c.other_ns + Int64.to_int (Int64.sub (ns ()) t0)

  let initial_state ~out_degree ~in_degree =
    let t0 = ns () in
    let r = P.initial_state ~out_degree ~in_degree in
    other t0;
    r

  let root_emit ~out_degree =
    let t0 = ns () in
    let r = P.root_emit ~out_degree in
    other t0;
    r

  let accepting st =
    let t0 = ns () in
    let r = P.accepting st in
    other t0;
    r

  let equal_message a b =
    let t0 = ns () in
    let r = P.equal_message a b in
    other t0;
    r

  let receive ~out_degree ~in_degree st m ~in_port =
    let w0 = Gc.minor_words () in
    let t0 = ns () in
    let r = P.receive ~out_degree ~in_degree st m ~in_port in
    let t1 = ns () in
    let w1 = Gc.minor_words () in
    c.recv_calls <- c.recv_calls + 1;
    c.recv_ns <- c.recv_ns + Int64.to_int (Int64.sub t1 t0);
    c.recv_words <- c.recv_words + int_of_float (w1 -. w0);
    r

  let state_bits st =
    let t0 = ns () in
    let r = P.state_bits st in
    c.sb_calls <- c.sb_calls + 1;
    c.sb_ns <- c.sb_ns + Int64.to_int (Int64.sub (ns ()) t0);
    r

  let encode w m =
    let t0 = ns () in
    P.encode w m;
    c.enc_calls <- c.enc_calls + 1;
    c.enc_ns <- c.enc_ns + Int64.to_int (Int64.sub (ns ()) t0)

  (* A raising decode (a detected corruption) is timed too. *)
  let decode r =
    let t0 = ns () in
    let fin () =
      c.dec_calls <- c.dec_calls + 1;
      c.dec_ns <- c.dec_ns + Int64.to_int (Int64.sub (ns ()) t0)
    in
    match P.decode r with
    | m ->
        fin ();
        m
    | exception e ->
        fin ();
        raise e
end
