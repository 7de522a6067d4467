module B = Bignat
module Dy = Exact.Dyadic
module Q = Exact.Rational

let write_unary w n =
  if n < 0 then invalid_arg "Codes.write_unary: negative";
  for _ = 1 to n do
    Bit_writer.bit w false
  done;
  Bit_writer.bit w true

let read_unary r =
  let n = ref 0 in
  while not (Bit_reader.bit r) do
    incr n
  done;
  !n

let write_gamma w n =
  if n < 1 then invalid_arg "Codes.write_gamma: needs n >= 1";
  let k = B.int_width n - 1 in
  write_unary w k;
  Bit_writer.bits w (n - (1 lsl k)) k

let read_gamma r =
  let k = read_unary r in
  (1 lsl k) lor Bit_reader.bits r k

let write_gamma0 w n = write_gamma w (n + 1)
let read_gamma0 r = read_gamma r - 1

let write_delta w n =
  if n < 1 then invalid_arg "Codes.write_delta: needs n >= 1";
  let k = B.int_width n - 1 in
  write_gamma w (k + 1);
  Bit_writer.bits w (n - (1 lsl k)) k

let read_delta r =
  let k = read_gamma r - 1 in
  (1 lsl k) lor Bit_reader.bits r k

let write_bignat w x =
  let n = B.bit_length x in
  write_gamma0 w n;
  for i = n - 1 downto 0 do
    Bit_writer.bit w (B.testbit x i)
  done

(* [n] magnitude bits, MSB first: a short leading chunk, then whole 30-bit
   chunks, so the value is built in [n / 30] shift-and-add steps.  A
   corrupted length below zero reads nothing and yields zero. *)
let read_magnitude r n =
  let chunk = 30 in
  if n <= 0 then B.zero
  else begin
    let x = ref (B.of_int (Bit_reader.bits r (n mod chunk))) in
    for _ = 1 to n / chunk do
      x := B.add (B.shift_left !x chunk) (B.of_int (Bit_reader.bits r chunk))
    done;
    !x
  end

let read_bignat r = read_magnitude r (read_gamma0 r)

(* The same bits as [write_bignat (Dy.mantissa d)]; a mantissa that fits an
   int goes out in one [Bit_writer.bits] call. *)
let write_dyadic w d =
  Bit_writer.bit w (Dy.is_negative d);
  write_gamma0 w (Dy.exponent d);
  let n = Dy.mantissa_bits d in
  if n <= Dy.int_bits then begin
    write_gamma0 w n;
    Bit_writer.bits w (Dy.mantissa_int d) n
  end
  else write_bignat w (Dy.mantissa d)

let read_dyadic r =
  let negative = Bit_reader.bit r in
  let e = read_gamma0 r in
  let n = read_gamma0 r in
  if n <= 0 then Dy.make_int ~negative 0 e
  else if n <= Dy.int_bits then Dy.make_int ~negative (Bit_reader.bits r n) e
  else Dy.make ~negative (read_magnitude r n) e

let write_rational w q =
  Bit_writer.bit w (Q.is_negative q);
  write_bignat w (Q.num q);
  write_bignat w (Q.den q)

let read_rational r =
  let negative = Bit_reader.bit r in
  let num = read_bignat r in
  let den = read_bignat r in
  Q.make ~negative num den

let gamma0_size n =
  let k = B.int_width (n + 1) - 1 in
  (2 * k) + 1

let bignat_size x =
  let n = B.bit_length x in
  gamma0_size n + n

let dyadic_size d =
  let n = Dy.mantissa_bits d in
  1 + gamma0_size (Dy.exponent d) + gamma0_size n + n

let rational_size q = 1 + bignat_size (Q.num q) + bignat_size (Q.den q)
