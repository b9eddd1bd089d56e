(* [netlist nl weight] is [nl] with each wire's weight replaced by
   [weight w], built through [Netlist.Builder]: the components in id
   order, then one wire per call in sorted order, which is also the
   order [weight] runs in. *)

module Netlist = Qbpart_netlist.Netlist
module Component = Qbpart_netlist.Component
module Wire = Qbpart_netlist.Wire

let netlist nl weight =
  let b = Netlist.Builder.create () in
  Array.iter
    (fun c ->
      ignore
        (Netlist.Builder.add_component b ~name:(Component.name c) ~size:(Component.size c) ()
          : int))
    (Netlist.components nl);
  Netlist.iter_wires nl (fun w ->
      Netlist.Builder.add_wire b (Wire.u w) (Wire.v w) ~weight:(weight w) ());
  Netlist.Builder.build b
