module B = Bignat

(* Two forms, exactly one per value:
   - [Int]: the signed mantissa [m] is an immediate int with [|m| < 2^61],
     so the sum of two such mantissas still fits a native int;
   - [Big]: the mantissa magnitude [mant >= 2^61].
   Both are normalized: the exponent is [>= 0] and the mantissa is odd
   unless the exponent is zero; zero is [Int { m = 0; e = 0 }].  So
   structural equality is numeric equality. *)
type t =
  | Int of { m : int; e : int }
  | Big of { negative : bool; mant : B.t; exp : int }

let int_bits = 61
let int_limit = 1 lsl int_bits

let zero = Int { m = 0; e = 0 }
let one = Int { m = 1; e = 0 }
let half = Int { m = 1; e = 1 }

(* [m / 2^e] for an odd [m] or [e = 0]; [m <> min_int]. *)
let of_reduced m e =
  if Stdlib.abs m < int_limit then Int { m; e }
  else Big { negative = m < 0; mant = B.of_int (Stdlib.abs m); exp = e }

(* Normal form of [m / 2^e] for any [m <> min_int] and [e >= 0]. *)
let of_small m e =
  if m = 0 then zero
  else if e > 0 && m land 1 = 0 then begin
    (* [m land -m] isolates the lowest set bit. *)
    let k = Stdlib.min (B.int_width (m land -m) - 1) e in
    of_reduced (m asr k) (e - k)
  end
  else of_reduced m e

(* Normal form of [± mant / 2^exp]: strip the common factors of two, then
   pick the form by width. *)
let normalize negative mant exp =
  if B.is_zero mant then zero
  else begin
    let tz = ref 0 in
    while !tz < exp && not (B.testbit mant !tz) do
      incr tz
    done;
    let mant = B.shift_right mant !tz and exp = exp - !tz in
    if B.bit_length mant <= int_bits then begin
      let m = B.to_int_exn mant in
      Int { m = (if negative then -m else m); e = exp }
    end
    else Big { negative; mant; exp }
  end

(* Sign, magnitude and exponent of either form: the view the [Bignat]
   fallback works on. *)
let parts = function
  | Int { m; e } -> (m < 0, B.of_int (Stdlib.abs m), e)
  | Big { negative; mant; exp } -> (negative, mant, exp)

let make ?(negative = false) m e =
  if e < 0 then invalid_arg "Dyadic.make: negative exponent";
  normalize negative m e

let make_int ?(negative = false) m e =
  if m < 0 then invalid_arg "Dyadic.make_int: negative mantissa";
  if e < 0 then invalid_arg "Dyadic.make_int: negative exponent";
  of_small (if negative then -m else m) e

let of_bignat n = normalize false n 0

(* [-min_int = min_int], so its magnitude 2^62 is built directly. *)
let of_int n =
  if n = min_int then Big { negative = true; mant = B.pow2 62; exp = 0 }
  else of_small n 0

let mantissa = function
  | Int { m; _ } -> B.of_int (Stdlib.abs m)
  | Big { mant; _ } -> mant

let mantissa_bits = function
  | Int { m; _ } -> B.int_width (Stdlib.abs m)
  | Big { mant; _ } -> B.bit_length mant

let mantissa_int = function
  | Int { m; _ } -> Stdlib.abs m
  | Big _ -> invalid_arg "Dyadic.mantissa_int: mantissa wider than int_bits"

let exponent = function Int { e; _ } -> e | Big { exp; _ } -> exp

let pow2 k =
  if k < 0 then Int { m = 1; e = -k }
  else if k < int_bits then Int { m = 1 lsl k; e = 0 }
  else Big { negative = false; mant = B.pow2 k; exp = 0 }

let is_zero = function Int { m; _ } -> m = 0 | Big _ -> false
let is_negative = function Int { m; _ } -> m < 0 | Big { negative; _ } -> negative

let sign = function
  | Int { m; _ } -> Int.compare m 0
  | Big { negative; _ } -> if negative then -1 else 1

let neg = function
  | Int { m; e } as x -> if m = 0 then x else Int { m = -m; e }
  | Big b -> Big { b with negative = not b.negative }

let abs = function
  | Int { m; e } as x -> if m >= 0 then x else Int { m = -m; e }
  | Big b -> Big { b with negative = false }

(* [m * 2^k] for [k >= 0] when its magnitude stays below [2^61], else
   [overflow], which is never an int mantissa.  The width test comes
   before any shift. *)
let overflow = min_int

let shifted m k =
  if m = 0 then 0
  else if B.int_width (Stdlib.abs m) + k <= int_bits then m lsl k
  else overflow

let big_add x y =
  let nx, mx, ex = parts x and ny, my, ey = parts y in
  (* Bring both operands over the common denominator 2^(max exp). *)
  let e = Stdlib.max ex ey in
  let mx = B.shift_left mx (e - ex) and my = B.shift_left my (e - ey) in
  if nx = ny then normalize nx (B.add mx my) e
  else begin
    let c = B.compare mx my in
    if c = 0 then zero
    else if c > 0 then normalize nx (B.sub mx my) e
    else normalize ny (B.sub my mx) e
  end

let add x y =
  match (x, y) with
  | Int a, Int b ->
      if a.e = b.e then of_small (a.m + b.m) a.e
      else if a.e < b.e then
        let am = shifted a.m (b.e - a.e) in
        if am <> overflow then of_small (am + b.m) b.e else big_add x y
      else
        let bm = shifted b.m (a.e - b.e) in
        if bm <> overflow then of_small (a.m + bm) a.e else big_add x y
  | _ -> big_add x y

let sub x y = add x (neg y)

let mul x y =
  match (x, y) with
  | Int a, Int b
    when B.int_width (Stdlib.abs a.m) + B.int_width (Stdlib.abs b.m) <= int_bits ->
      of_small (a.m * b.m) (a.e + b.e)
  | _ ->
      let nx, mx, ex = parts x and ny, my, ey = parts y in
      normalize (nx <> ny) (B.mul mx my) (ex + ey)

let mul_pow2 x k =
  match x with
  | Int { m; e } ->
      if m = 0 || k <= e then of_small m (e - k)
      else
        let sm = shifted m (k - e) in
        if sm <> overflow then Int { m = sm; e = 0 }
        else
          let mant = B.shift_left (B.of_int (Stdlib.abs m)) (k - e) in
          Big { negative = m < 0; mant; exp = 0 }
  | Big b ->
      if k < 0 then normalize b.negative b.mant (b.exp - k)
      else if b.exp >= k then Big { b with exp = b.exp - k }
      else Big { b with mant = B.shift_left b.mant (k - b.exp); exp = 0 }

let div_pow2 x k = mul_pow2 x (-k)

let big_compare x y =
  match (sign x, sign y) with
  | sx, sy when sx <> sy -> Stdlib.compare sx sy
  | 0, _ -> 0
  | s, _ ->
      let _, mx, ex = parts x and _, my, ey = parts y in
      let e = Stdlib.max ex ey in
      let c = B.compare_shifted mx (e - ex) my (e - ey) in
      if s > 0 then c else -c

let compare x y =
  match (x, y) with
  | Int a, Int b ->
      (* A mantissa that overflows when aligned is non-zero and outweighs
         the other ([|m| * 2^k >= 2^61 > |other|]): its sign decides. *)
      if a.e = b.e then Int.compare a.m b.m
      else if a.e < b.e then
        let am = shifted a.m (b.e - a.e) in
        if am <> overflow then Int.compare am b.m else if a.m > 0 then 1 else -1
      else
        let bm = shifted b.m (a.e - b.e) in
        if bm <> overflow then Int.compare a.m bm else if b.m > 0 then -1 else 1
  | _ -> big_compare x y

let equal x y = compare x y = 0
let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y

let sum = List.fold_left add zero

let midpoint x y = div_pow2 (add x y) 1

let to_rational x =
  let negative, mant, exp = parts x in
  Rational.make ~negative mant (B.pow2 exp)

let of_rational_opt r =
  let den = Rational.den r in
  let e = B.bit_length den - 1 in
  if B.equal den (B.pow2 e) then
    Some (make ~negative:(Rational.is_negative r) (Rational.num r) e)
  else None

let bit_size x =
  (* Sign bit, mantissa bits, and an Elias-gamma-sized exponent field. *)
  1 + mantissa_bits x + (2 * B.int_width (exponent x)) + 1

let to_binary_string x =
  let negative, mant, exp = parts x in
  let sign = if negative then "-" else "" in
  if is_zero x then "0"
  else begin
    let int_part = B.shift_right mant exp in
    let frac = B.sub mant (B.shift_left int_part exp) in
    if exp = 0 then sign ^ B.to_string_binary int_part
    else begin
      let bits =
        String.init exp (fun i -> if B.testbit frac (exp - 1 - i) then '1' else '0')
      in
      sign ^ B.to_string_binary int_part ^ "." ^ bits
    end
  end

let to_string x =
  let negative, mant, exp = parts x in
  let sign = if negative then "-" else "" in
  if is_zero x then "0"
  else begin
    let int_part = B.shift_right mant exp in
    let frac = B.sub mant (B.shift_left int_part exp) in
    if exp = 0 then sign ^ B.to_string int_part
    else begin
      (* frac / 2^e = frac * 5^e / 10^e: an exact decimal expansion. *)
      let scaled = B.mul frac (B.pow (B.of_int 5) exp) in
      let digits = B.to_string scaled in
      let padded =
        if String.length digits >= exp then digits
        else String.make (exp - String.length digits) '0' ^ digits
      in
      sign ^ B.to_string int_part ^ "." ^ padded
    end
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)

let to_float x =
  let negative, mant, exp = parts x in
  let shift = Stdlib.max 0 (B.bit_length mant - 512) in
  let m = float_of_string (B.to_string (B.shift_right mant shift)) in
  let r = m *. Float.pow 2.0 (Float.of_int (shift - exp)) in
  if negative then -.r else r
