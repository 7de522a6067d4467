module B = Bignat
module Q = Exact.Rational
module Dy = Exact.Dyadic
open Helpers

(* {1 Unit tests} *)

let test_normalization () =
  Alcotest.check dyadic "4/8 = 1/2" Dy.half (Dy.make (B.of_int 4) 3);
  Alcotest.check dyadic "0/2^k = 0" Dy.zero (Dy.make B.zero 10);
  Alcotest.(check int) "mantissa odd after normalize" 3
    (B.to_int_exn (Dy.mantissa (Dy.make (B.of_int 12) 4)));
  Alcotest.(check int) "exponent reduced" 2 (Dy.exponent (Dy.make (B.of_int 12) 4))

let test_decimal_strings () =
  Alcotest.(check string) "5/16" "0.3125" (Dy.to_string (Dy.make (B.of_int 5) 4));
  Alcotest.(check string) "1/2" "0.5" (Dy.to_string Dy.half);
  Alcotest.(check string) "integer" "7" (Dy.to_string (Dy.of_int 7));
  Alcotest.(check string) "negative" "-0.25" (Dy.to_string (Dy.make ~negative:true B.one 2));
  Alcotest.(check string) "zero" "0" (Dy.to_string Dy.zero);
  Alcotest.(check string) "mixed" "2.75" (Dy.to_string (Dy.make (B.of_int 11) 2))

let test_binary_strings () =
  Alcotest.(check string) "5/16" "0.0101" (Dy.to_binary_string (Dy.make (B.of_int 5) 4));
  Alcotest.(check string) "integer" "111" (Dy.to_binary_string (Dy.of_int 7));
  Alcotest.(check string) "zero" "0" (Dy.to_binary_string Dy.zero)

let test_arith_known () =
  Alcotest.check dyadic "1/2 + 1/4" (Dy.make (B.of_int 3) 2)
    (Dy.add Dy.half (Dy.make B.one 2));
  Alcotest.check dyadic "1/2 - 1/4" (Dy.make B.one 2) (Dy.sub Dy.half (Dy.make B.one 2));
  Alcotest.check dyadic "1/4 - 1/2 negative" (Dy.make ~negative:true B.one 2)
    (Dy.sub (Dy.make B.one 2) Dy.half);
  Alcotest.check dyadic "3/4 * 1/2" (Dy.make (B.of_int 3) 3)
    (Dy.mul (Dy.make (B.of_int 3) 2) Dy.half)

let test_pow2 () =
  Alcotest.check dyadic "2^3" (Dy.of_int 8) (Dy.pow2 3);
  Alcotest.check dyadic "2^-2" (Dy.make B.one 2) (Dy.pow2 (-2));
  Alcotest.check dyadic "2^0" Dy.one (Dy.pow2 0)

let test_mul_pow2 () =
  let x = Dy.make (B.of_int 3) 2 in
  Alcotest.check dyadic "x * 4" (Dy.of_int 3) (Dy.mul_pow2 x 2);
  Alcotest.check dyadic "x / 4" (Dy.make (B.of_int 3) 4) (Dy.div_pow2 x 2);
  Alcotest.check dyadic "x * 8 across exp" (Dy.of_int 6) (Dy.mul_pow2 x 3)

let test_midpoint () =
  Alcotest.check dyadic "mid(0,1)" Dy.half (Dy.midpoint Dy.zero Dy.one);
  Alcotest.check dyadic "mid(1/4,1/2)" (Dy.make (B.of_int 3) 3)
    (Dy.midpoint (Dy.make B.one 2) Dy.half)

let test_rational_bridge () =
  let d = Dy.make (B.of_int 5) 4 in
  Alcotest.check rational "to_rational" (Q.of_ints 5 16) (Dy.to_rational d);
  (match Dy.of_rational_opt (Q.of_ints 5 16) with
  | Some d' -> Alcotest.check dyadic "roundtrip" d d'
  | None -> Alcotest.fail "5/16 is dyadic");
  Alcotest.(check bool) "1/3 not dyadic" true (Dy.of_rational_opt (Q.of_ints 1 3) = None)

let test_to_float () =
  Alcotest.(check (float 1e-12)) "0.3125" 0.3125 (Dy.to_float (Dy.make (B.of_int 5) 4));
  Alcotest.(check (float 1e-12)) "-2.5" (-2.5) (Dy.to_float (Dy.make ~negative:true (B.of_int 5) 1))

(* [-min_int = min_int]: the magnitude 2^62 must not go through
   [Bignat.of_int] of a negative int. *)
let test_of_int_extremes () =
  Alcotest.(check bool) "of_int min_int = -(2^62)" true
    (Dy.of_int min_int = Dy.neg (Dy.pow2 62));
  Alcotest.check rational "of_int min_int value"
    (Q.make ~negative:true (B.pow2 62) B.one)
    (Dy.to_rational (Dy.of_int min_int));
  Alcotest.(check bool) "of_int max_int = 2^62 - 1" true
    (Dy.of_int max_int = Dy.sub (Dy.pow2 62) Dy.one);
  Alcotest.(check int) "mantissa_bits max_int" 62 (Dy.mantissa_bits (Dy.of_int max_int))

(* {1 Properties} *)

let prop_add_comm =
  qcheck_to_alcotest "add commutative"
    QCheck.(pair arb_dyadic arb_dyadic)
    (fun (a, b) -> Dy.equal (Dy.add a b) (Dy.add b a))

let prop_add_assoc =
  qcheck_to_alcotest "add associative"
    QCheck.(triple arb_dyadic arb_dyadic arb_dyadic)
    (fun (a, b, c) -> Dy.equal (Dy.add (Dy.add a b) c) (Dy.add a (Dy.add b c)))

let prop_add_neg =
  qcheck_to_alcotest "x + (-x) = 0" arb_dyadic (fun a -> Dy.is_zero (Dy.add a (Dy.neg a)))

let prop_sub_add =
  qcheck_to_alcotest "(a-b)+b = a"
    QCheck.(pair arb_dyadic arb_dyadic)
    (fun (a, b) -> Dy.equal (Dy.add (Dy.sub a b) b) a)

let prop_mul_agrees_with_rational =
  qcheck_to_alcotest "mul agrees with rationals"
    QCheck.(pair arb_dyadic arb_dyadic)
    (fun (a, b) ->
      Q.equal (Dy.to_rational (Dy.mul a b)) (Q.mul (Dy.to_rational a) (Dy.to_rational b)))

let prop_add_agrees_with_rational =
  qcheck_to_alcotest "add agrees with rationals"
    QCheck.(pair arb_dyadic arb_dyadic)
    (fun (a, b) ->
      Q.equal (Dy.to_rational (Dy.add a b)) (Q.add (Dy.to_rational a) (Dy.to_rational b)))

let prop_compare_agrees_with_rational =
  qcheck_to_alcotest "compare agrees with rationals"
    QCheck.(pair arb_dyadic arb_dyadic)
    (fun (a, b) -> Dy.compare a b = Q.compare (Dy.to_rational a) (Dy.to_rational b))

(* Independent wide endpoints, or one endpoint and itself nudged by a
   power of two: a different exponent over the same leading limbs. *)
let arb_wide_pair =
  let gen =
    QCheck.Gen.(
      gen_wide_unit_dyadic >>= fun a ->
      oneof
        [
          map (fun b -> (a, b)) gen_wide_unit_dyadic;
          map2
            (fun e up -> (a, (if up then Dy.add else Dy.sub) a (Dy.pow2 (-e))))
            (int_range 1 220) bool;
        ])
  in
  QCheck.make ~print:QCheck.Print.(pair Dy.to_string Dy.to_string) gen

let prop_compare_agrees_with_rational_wide =
  qcheck_to_alcotest ~count:500 "compare agrees with rationals (wide endpoints)"
    arb_wide_pair
    (fun (a, b) -> Dy.compare a b = Q.compare (Dy.to_rational a) (Dy.to_rational b))

let prop_normal_form =
  qcheck_to_alcotest "normal form: odd mantissa or zero exponent" arb_dyadic (fun a ->
      if Dy.is_zero a then Dy.exponent a = 0 && not (Dy.is_negative a)
      else Dy.exponent a = 0 || not (B.is_even (Dy.mantissa a)))

let prop_mul_pow2_roundtrip =
  qcheck_to_alcotest "mul_pow2 then div_pow2"
    QCheck.(pair arb_dyadic (int_bound 60))
    (fun (a, k) -> Dy.equal (Dy.div_pow2 (Dy.mul_pow2 a k) k) a)

let prop_midpoint_between =
  qcheck_to_alcotest "midpoint strictly between"
    QCheck.(pair arb_dyadic arb_dyadic)
    (fun (a, b) ->
      QCheck.assume (not (Dy.equal a b));
      let lo = Dy.min a b and hi = Dy.max a b in
      let m = Dy.midpoint a b in
      Dy.compare lo m < 0 && Dy.compare m hi < 0)

let prop_rational_roundtrip =
  qcheck_to_alcotest "dyadic -> rational -> dyadic" arb_dyadic (fun a ->
      match Dy.of_rational_opt (Dy.to_rational a) with
      | Some a' -> Dy.equal a a'
      | None -> false)

let prop_of_rational_rejects_non_dyadic =
  qcheck_to_alcotest "rejects odd denominators > 1" arb_rational (fun q ->
      QCheck.assume (not (B.is_one (Q.den q)));
      QCheck.assume (not (B.is_even (Q.den q)));
      Dy.of_rational_opt q = None)

(* {2 The int/Bignat boundary}

   Every result must be the value [Rational] computes, and structurally
   the normal form [make] builds for it: the one representation its
   mantissa width allows. *)

let canonical x =
  x = Dy.make ~negative:(Dy.is_negative x) (Dy.mantissa x) (Dy.exponent x)

let q = Dy.to_rational

let agrees name op qop =
  qcheck_to_alcotest ~count:1000 (name ^ " agrees with rationals (int/Bignat boundary)")
    arb_boundary_pair
    (fun (a, b) ->
      let r = op a b in
      Q.equal (q r) (qop (q a) (q b)) && canonical r)

let prop_boundary_add = agrees "add" Dy.add Q.add
let prop_boundary_sub = agrees "sub" Dy.sub Q.sub
let prop_boundary_mul = agrees "mul" Dy.mul Q.mul

let prop_boundary_compare =
  qcheck_to_alcotest ~count:1000 "compare agrees with rationals (int/Bignat boundary)"
    arb_boundary_pair
    (fun (a, b) -> Dy.compare a b = Q.compare (q a) (q b))

let prop_boundary_mul_pow2 =
  qcheck_to_alcotest ~count:1000 "mul_pow2 agrees with rationals (int/Bignat boundary)"
    QCheck.(pair arb_boundary_dyadic (int_range (-70) 70))
    (fun (a, k) ->
      let p = if k >= 0 then Q.make (B.pow2 k) B.one else Q.make B.one (B.pow2 (-k)) in
      let r = Dy.mul_pow2 a k in
      Q.equal (q r) (Q.mul (q a) p) && canonical r)

let prop_boundary_make_canonical =
  qcheck_to_alcotest ~count:1000 "make (m * 2^k) (e + k) = make m e structurally"
    QCheck.(
      triple (make ~print:B.to_string gen_boundary_mantissa) (int_bound 12) (int_bound 70))
    (fun (m, e, k) ->
      Dy.make (B.shift_left m k) (e + k) = Dy.make m e
      && Dy.make ~negative:true (B.shift_left m k) (e + k) = Dy.make ~negative:true m e)

let prop_boundary_crossing_roundtrip =
  qcheck_to_alcotest ~count:1000 "(x + y) - y = x structurally when x + y leaves the int range"
    arb_crossing_pair
    (fun (x, y) ->
      let s = Dy.add x y in
      Dy.mantissa_bits x <= Dy.int_bits
      && Dy.mantissa_bits s > Dy.int_bits
      && Dy.sub s y = x)

let () =
  Alcotest.run "dyadic"
    [
      ( "units",
        [
          Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "decimal strings" `Quick test_decimal_strings;
          Alcotest.test_case "binary strings" `Quick test_binary_strings;
          Alcotest.test_case "arithmetic" `Quick test_arith_known;
          Alcotest.test_case "pow2" `Quick test_pow2;
          Alcotest.test_case "mul_pow2" `Quick test_mul_pow2;
          Alcotest.test_case "midpoint" `Quick test_midpoint;
          Alcotest.test_case "rational bridge" `Quick test_rational_bridge;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "of_int extremes" `Quick test_of_int_extremes;
        ] );
      ( "properties",
        [
          prop_add_comm;
          prop_add_assoc;
          prop_add_neg;
          prop_sub_add;
          prop_mul_agrees_with_rational;
          prop_add_agrees_with_rational;
          prop_compare_agrees_with_rational;
          prop_compare_agrees_with_rational_wide;
          prop_normal_form;
          prop_mul_pow2_roundtrip;
          prop_midpoint_between;
          prop_rational_roundtrip;
          prop_of_rational_rejects_non_dyadic;
        ] );
      ( "int-bignat-boundary",
        [
          prop_boundary_compare;
          prop_boundary_add;
          prop_boundary_sub;
          prop_boundary_mul;
          prop_boundary_mul_pow2;
          prop_boundary_make_canonical;
          prop_boundary_crossing_roundtrip;
        ] );
    ]
