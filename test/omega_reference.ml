(* The bound vector omega of equation (2), walked the slow way: each
   entry on its own, its maxima folded from [Topology.b] and
   [Topology.d], its terms added in the order that fixes its sum
   (p(i, j), the wires in slot order, then per partner slot the
   outgoing and the incoming penalty).  [Qmatrix.xi] computes the
   entries it reads on demand and must sum to exactly this. *)

open Qbpart_core
module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints

let by_entry ~rule q =
  let pr = Qmatrix.problem q in
  let nl = pr.Problem.netlist and cons = pr.Problem.constraints in
  let topo = pr.Problem.topology in
  let m = Problem.m pr and n = Problem.n pr in
  let max_b_from i = List.fold_left Float.max 0.0 (List.init m (Topology.b topo i)) in
  let max_b_to i = List.fold_left Float.max 0.0 (List.init m (fun i' -> Topology.b topo i' i)) in
  let max_d_from i = List.fold_left Float.max neg_infinity (List.init m (Topology.d topo i)) in
  let max_d_to i =
    List.fold_left Float.max neg_infinity (List.init m (fun i' -> Topology.d topo i' i))
  in
  let xadj = Netlist.adj_offsets nl and anbr = Netlist.adj_targets nl in
  let awgt = Netlist.adj_weights nl in
  let poff = Constraints.partner_offsets cons in
  let pbout = Constraints.partner_budget_out cons in
  let pbin = Constraints.partner_budget_in cons in
  let pen = Qmatrix.penalty q in
  Array.init (m * n) (fun r ->
      let i = r mod m and j = r / m in
      let acc = ref (Problem.p_entry pr ~i ~j) in
      for k = xadj.(j) to xadj.(j + 1) - 1 do
        match rule with
        | Qmatrix.Solver when j < anbr.(k) -> acc := !acc +. (awgt.(k) *. max_b_from i)
        | Qmatrix.Solver | Qmatrix.Paper -> acc := !acc +. (awgt.(k) *. max_b_to i)
      done;
      for k = poff.(j) to poff.(j + 1) - 1 do
        match rule with
        | Qmatrix.Solver ->
          if max_d_from i > pbout.(k) then acc := !acc +. pen;
          if max_d_to i > pbin.(k) then acc := !acc +. pen
        | Qmatrix.Paper -> if max_d_to i > pbin.(k) then acc := !acc +. pen
      done;
      !acc)

(* xi = sum over j ascending of omega(u(j), j) *)
let xi omega ~m u =
  let total = ref 0.0 in
  Array.iteri (fun j i -> total := !total +. omega.((j * m) + i)) u;
  !total
