(* The Table 1 instances of the paper, as the extended-DIMACS texts the
   solver's front end reads, and the branch-and-prune configuration
   Table 1 runs the steering model with. *)

module A = Absolver_core
module BP = Absolver_nlp.Branch_prune

(* esat_n11_m8_nonlinear: 11 clauses, 8 Boolean variables, 9 linear and
   2 nonlinear expressions (the published statistics). *)
let esat =
  {|p cnf 8 11
1 2 0
-1 3 0
2 -3 4 0
-4 5 0
5 6 0
-6 7 0
7 -8 0
1 -5 8 0
-2 -7 0
3 4 -6 0
2 5 7 0
c def real 1 u + v >= 1
c def real 2 u - v <= 3
c def real 3 2 * u + w <= 10
c def real 4 w - v >= -2
c def real 5 u + v + w <= 12
c def real 6 v >= 0
c def real 6 u + 2 * v <= 15
c def real 7 u >= 0
c def real 7 w >= 0
c def real 8 u * v <= 6
c def real 8 w * w >= 0.25
c bound u -20 20
c bound v -20 20
c bound w -20 20
|}

(* nonlinear_unsat: 1 clause, 1 variable, 2 nonlinear expressions that
   cannot hold together. *)
let nonlinear_unsat =
  {|p cnf 1 1
1 0
c def real 1 x * x + y * y <= 1
c def real 1 x * y >= 2
c bound x -10 10
c bound y -10 10
|}

(* div_operator: one clause, one variable, 4 linear and 1 nonlinear
   expression. *)
let div_operator =
  {|p cnf 1 1
1 0
c def real 1 a >= 1
c def real 1 a <= 5
c def real 1 b >= 2
c def real 1 b <= 6
c def real 1 a / b >= 0.5
c bound a -100 100
c bound b -100 100
|}

(* sphere_cap_unsat: the unit ball cut by a plane outside it. *)
let sphere_cap_unsat =
  {|p cnf 1 1
1 0
c def real 1 x * x + y * y + z * z <= 1
c def real 1 x + y + z >= 2
c bound x -2 2
c bound y -2 2
c bound z -2 2
|}

(* Table 1 solves the steering model with a node cap of 600 per
   branch-and-prune call; the default cap of 200k runs for minutes. *)
let steering_registry =
  {
    A.Registry.default with
    A.Registry.nonlinear =
      [
        A.Registry.branch_prune_solver
          ~config:
            {
              BP.default_config with
              BP.max_nodes = 600;
              samples_per_node = 2;
              root_samples = 2048;
            }
          ();
      ];
  }
