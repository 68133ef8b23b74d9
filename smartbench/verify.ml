(* Answer checking, run outside the timed path.

   An advisory is re-derived from first principles: the winner's netlist
   is rebuilt from the design database (entry name + the request's
   requirements), the advised widths are applied, and the result is
   re-timed by the golden STA and cross-checked by the three-way timing
   oracle at the request's specification — at every corner of a robust
   request.  The sized delay must fall within the sizer's acceptance
   band, and the advice's own delay and width figures must match what
   the rebuilt netlist gives.  Expected-error requests must come back
   with the expected error code. *)

module Smart = Smart_core.Smart
module Wire = Smart_serve.Wire
module Jsonx = Smart_serve.Jsonx

let rel_close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs b)

(* The advice object of a response line, as bytes: the payload the
   byte-identity checks compare (the envelope's [cache] and [wall_ms]
   differ by construction). *)
let advice_bytes line =
  match Jsonx.parse line with
  | Ok j -> Option.map Jsonx.to_string (Jsonx.member "advice" j)
  | Error _ -> None

let ( let* ) = Result.bind

let check_advice ~db (req : Smart.Request.t) (adv : Wire.Advice.t) =
  let* cand =
    match adv.Wire.Advice.ranked with
    | c :: _ when c.Wire.Advice.entry = adv.Wire.Advice.winner -> Ok c
    | _ -> Error "winner is not the first ranked candidate"
  in
  let* entry =
    match Smart.Database.find db cand.Wire.Advice.entry with
    | Some e -> Ok e
    | None -> Error ("unknown database entry " ^ cand.Wire.Advice.entry)
  in
  let netlist =
    (entry.Smart.Database.build req.Smart.Request.requirements).Smart.Macro.netlist
  in
  let widths = Hashtbl.create 64 in
  List.iter (fun (l, w) -> Hashtbl.replace widths l w) cand.Wire.Advice.sizing;
  let* () =
    match
      List.find_opt
        (fun l -> not (Hashtbl.mem widths l))
        (Smart.Circuit.labels netlist)
    with
    | Some l -> Error ("label " ^ l ^ " not sized")
    | None -> Ok ()
  in
  let sizing l = Hashtbl.find widths l in
  let spec = req.Smart.Request.spec in
  let target = spec.Smart.Constraints.target_delay in
  let band = 1. +. req.Smart.Request.options.Smart.Sizer.tolerance in
  let techs =
    match req.Smart.Request.corners with
    | None -> [ req.Smart.Request.tech ]
    | Some set ->
      List.map (fun c -> c.Smart.Corners.tech) (Smart.Corners.to_list set)
  in
  let width = Smart.Circuit.total_width netlist sizing in
  let* () =
    if rel_close cand.Wire.Advice.width_um width then Ok ()
    else
      Error
        (Printf.sprintf "advised width %.6g um, rebuilt netlist gives %.6g"
           cand.Wire.Advice.width_um width)
  in
  let delays =
    List.map
      (fun tech ->
        ( tech,
          Smart.Sta.analyze ?input_slope:spec.Smart.Constraints.input_slope tech
            netlist ~sizing ))
      techs
  in
  let* () =
    List.fold_left
      (fun acc ((tech : Smart.Tech.t), (sta : Smart.Sta.t)) ->
        let* () = acc in
        if sta.Smart.Sta.max_delay <= target *. band then Ok ()
        else
          Error
            (Printf.sprintf "%s: golden delay %.3f ps misses target %.3f ps"
               tech.Smart.Tech.name sta.Smart.Sta.max_delay target))
      (Ok ()) delays
  in
  let* () =
    (* The advised delay is the nominal one, or the binding corner's. *)
    let worst =
      List.fold_left
        (fun a (_, (s : Smart.Sta.t)) -> Float.max a s.Smart.Sta.max_delay)
        0. delays
    in
    if rel_close cand.Wire.Advice.delay_ps worst then Ok ()
    else
      Error
        (Printf.sprintf "advised delay %.6g ps, golden re-timing gives %.6g"
           cand.Wire.Advice.delay_ps worst)
  in
  List.fold_left
    (fun acc (tech, _) ->
      let* () = acc in
      match (Smart.Check_oracle.run tech netlist ~sizing).Smart.Check_oracle.mismatches with
      | [] -> Ok ()
      | m :: _ ->
        Error
          (Format.asprintf "timing oracle disagrees: %a"
             Smart.Check_oracle.pp_mismatch m))
    (Ok ()) delays

(* Check one response line against its request: an advisory must pass
   [check_advice], an expected error must carry its code. *)
let check ~db (r : Gen.request) response =
  match (Wire.Response.of_line response, r.Gen.expect) with
  | Error e, _ ->
    Error ("undecodable response: " ^ Smart.Error.to_string e)
  | Ok resp, Gen.Fails code -> (
    match resp.Wire.Response.payload with
    | Wire.Response.Failed e when Smart.Error.code e = code -> Ok ()
    | Wire.Response.Failed e ->
      Error (Printf.sprintf "expected %s, got %s" code (Smart.Error.code e))
    | _ -> Error ("expected " ^ code ^ ", got an answer"))
  | Ok resp, Gen.Advice -> (
    match resp.Wire.Response.payload with
    | Wire.Response.Advice adv -> (
      match Result.bind (Wire.Request.of_line r.Gen.line) Wire.Request.elaborate with
      | Error e -> Error ("request does not elaborate: " ^ Smart.Error.to_string e)
      | Ok req -> check_advice ~db req adv)
    | Wire.Response.Failed e -> Error ("failed: " ^ Smart.Error.to_string e)
    | _ -> Error "not an advisory")

(* The winner's width of an advisory response line (0 otherwise). *)
let winner_width response =
  match Wire.Response.of_line response with
  | Ok { Wire.Response.payload = Wire.Response.Advice adv; _ } -> (
    match adv.Wire.Advice.ranked with
    | c :: _ -> c.Wire.Advice.width_um
    | [] -> 0.)
  | _ -> 0.
