module Err = Smart_util.Err

(* [rc] decomposes the coefficient by degree in the corner scale [s]
   (the sqrt of the RC excursion Tech.scaled splits across R and C):
   coeff = sum_d c_d at s = 1, and the coefficient at another corner is
   sum_d c_d * s^d.  The empty list means the decomposition was lost
   through an operation that cannot maintain it (e.g. a fractional power
   of a mixed-degree sum); projection then refuses and callers fall back
   to regenerating per corner.  Entries are sorted by degree, merged, and
   strictly positive. *)
type t = {
  coeff : float;
  exps : (string * float) list; (* sorted, nonzero *)
  rc : (float * float) list; (* (degree in s, partial coefficient) *)
}

let rc_norm = function
  | ([] | [ _ ]) as l -> l
  | l ->
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun (d, c) ->
        let cur = try Hashtbl.find tbl d with Not_found -> 0. in
        Hashtbl.replace tbl d (cur +. c))
      l;
    Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)

let rc_mul a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | [ (da, ca) ], [ (db, cb) ] -> [ (da +. db, ca *. cb) ]
  | a, b ->
    rc_norm
      (List.concat_map
         (fun (da, ca) -> List.map (fun (db, cb) -> (da +. db, ca *. cb)) b)
         a)

let rc_scale k = List.map (fun (d, c) -> (d, k *. c))

let rc_pow p = function
  | [] -> []
  | [ (d, c) ] -> [ (d *. p, c ** p) ]
  | l ->
    (* A power of a mixed-degree sum is a polynomial in [s] only for
       non-negative integer exponents. *)
    if Float.is_integer p && p >= 0. then begin
      let rec go acc base n =
        let acc = if n land 1 = 1 then rc_mul acc base else acc in
        if n <= 1 then acc else go acc (rc_mul base base) (n lsr 1)
      in
      if p = 0. then [ (0., 1.) ] else go [ (0., 1.) ] l (int_of_float p)
    end
    else []

let normalise exps =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, e) ->
      let cur = try Hashtbl.find tbl v with Not_found -> 0. in
      Hashtbl.replace tbl v (cur +. e))
    exps;
  Hashtbl.fold (fun v e acc -> if e = 0. then acc else (v, e) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let make c exps =
  if not (c > 0.) || Float.is_nan c then
    Err.fail "Monomial.make: coefficient %g must be positive" c;
  { coeff = c; exps = normalise exps; rc = [ (0., c) ] }

let of_normalised c exps rc =
  if not (c > 0.) || Float.is_nan c then
    Err.fail "Monomial.of_normalised: coefficient %g must be positive" c;
  { coeff = c; exps; rc = rc_norm rc }

let make_deg ~deg c exps = { (make c exps) with rc = [ (deg, c) ] }
let const c = make c []
let var x = make 1. [ (x, 1.) ]
let coeff m = m.coeff
let exponents m = m.exps
let rc m = m.rc
let degree_of m x = try List.assoc x m.exps with Not_found -> 0.

let coeff_at s m =
  match m.rc with
  | [] -> None
  | _ when s = 1. -> Some m.coeff
  | rc -> Some (List.fold_left (fun acc (d, c) -> acc +. (c *. (s ** d))) 0. rc)

let project s m =
  if s = 1. then Some m
  else
    match m.rc with
    | [] -> None
    | rc ->
      let rc = List.map (fun (d, c) -> (d, c *. (s ** d))) rc in
      let c = List.fold_left (fun acc (_, c) -> acc +. c) 0. rc in
      Some { m with coeff = c; rc }

let mul a b =
  { (make (a.coeff *. b.coeff) (a.exps @ b.exps)) with rc = rc_mul a.rc b.rc }

let pow m p =
  {
    (make (m.coeff ** p) (List.map (fun (v, e) -> (v, e *. p)) m.exps)) with
    rc = rc_pow p m.rc;
  }

let inv m = pow m (-1.)
let div a b = mul a (inv b)

let scale a m =
  if not (a > 0.) then Err.fail "Monomial.scale: factor %g must be positive" a;
  { m with coeff = a *. m.coeff; rc = rc_scale a m.rc }

let is_const m = m.exps = []
let vars m = List.map fst m.exps

let eval env m =
  List.fold_left (fun acc (v, e) -> acc *. (env v ** e)) m.coeff m.exps

let subst x m' m =
  let e = degree_of m x in
  if e = 0. then m
  else
    let rest = List.filter (fun (v, _) -> v <> x) m.exps in
    mul { coeff = m.coeff; exps = rest; rc = m.rc } (pow m' e)

let compare a b =
  match Float.compare a.coeff b.coeff with
  | 0 -> Stdlib.compare a.exps b.exps
  | c -> c

let equal a b = compare a b = 0

let pp ppf m =
  Format.fprintf ppf "%g" m.coeff;
  List.iter
    (fun (v, e) ->
      if e = 1. then Format.fprintf ppf "*%s" v
      else Format.fprintf ppf "*%s^%g" v e)
    m.exps

let to_string m = Format.asprintf "%a" pp m
