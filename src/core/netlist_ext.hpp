// Registers the paper's transducer models as netlist X-device types:
//
//   X<id> ea eb mc md ETRANSV a=<m^2> d=<m> er=<1> [x0=<m>]
//   X<id> ea eb mc md ETRANSP h=<m> l=<m> d=<m> er=<1> [x0=<m>]
//   X<id> ea eb mc md EMAG    a=<m^2> d=<m> n=<turns> [x0=<m>]
//   X<id> ea eb mc md EDYN    n=<turns> r=<m> b=<T>
//   X<id> ea eb mc md LINTRANSV a=<m^2> d=<m> er=<1> v0=<V> m=<kg> k=<N/m>
//                                [alpha=<Ns/m>] [secant=1]
//
// Pin order: electrical +, electrical -, mechanical free plate, mechanical
// reference.
//
// Array macro (the paper's thousand-transducer MEMS workload in one card):
//
//   X<id> ea eb TRANSARRAY n=<elements> a=<m^2> d=<m> [er=<1>] m=<kg>
//                          k=<N/m> [alpha=<Ns/m>] [dspread=<frac>] [x0=<m>]
//
// expands to n transverse electrostatic transducers sharing the ea/eb
// electrical bus, each with its own mechanical node "<id>_v<i>" carrying a
// Mass/Spring/Damper suspension against the fixed frame. dspread varies the
// gap linearly across elements by +-frac (fabrication-gradient scenarios).
//
// HDL-AT stdlib models as netlist cards (same 4-pin order; executed by the
// HDL engine instead of the hand-written C++ devices — see docs/hdl.md):
//
//   X<id> ea eb mc md HDLTRANSV a=<m^2> d=<m> er=<1>   (paper Listing 1)
//   X<id> ea eb mc md HDLTRANSE a=<m^2> d=<m> er=<1>   (energy-complete)
//   X<id> ea eb mc md HDLTRANSP h=<m> l=<m> d=<m> er=<1>
//   X<id> ea eb mc md HDLMAG    a=<m^2> d=<m> n=<turns>
//   X<id> ea eb mc md HDLDYN    n=<turns> r=<m> b=<T>
//
// Every HDL card accepts `mode=ast|bytecode` (default: the
// `.options hdl=` setting in effect, else bytecode). This registration also
// installs the `hdl` string option on the parser.
#pragma once

#include "spice/netlist.hpp"

namespace usys::core {

/// Installs the ETRANSV/ETRANSP/EMAG/EDYN/LINTRANSV factories.
void register_transducer_devices(spice::NetlistParser& parser);

/// A parser with both the built-in and the transducer device types.
spice::NetlistParser make_full_parser();

}  // namespace usys::core
