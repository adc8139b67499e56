// Seeded netlist generators. The library only ever sees the generated text.
//
// The seed picks every name in a netlist (title, nodes, devices), and on
// mc_server also the drive values, request mix and Monte Carlo seeds. The
// physics of fig3_hdl, array_tran_1k and array_op_20k is fixed, so the
// output checks can compare against values recorded here and every seed
// does the same numerical work.
#include <cstdio>
#include <sstream>

#include "netlists.hpp"

namespace usysbench {

namespace {

std::string tag_of(SeedRng& rng) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%06llx",
                static_cast<unsigned long long>(rng.next() & 0xffffffull));
  return buf;
}

}  // namespace

Fig3Netlist fig3_netlist(std::uint64_t seed) {
  SeedRng rng(seed ^ 0xf163f163ull);
  const std::string t = tag_of(rng);
  Fig3Netlist out;
  out.disp_node = "disp_" + t;
  std::ostringstream os;
  // The paper's Fig. 3 system: the Listing 1 transducer (HDL, bytecode VM)
  // driving a mass-spring-damper, with the plate displacement integrated
  // from its velocity.
  os << "* usysbench fig3_hdl seed=" << seed << "\n"
     << "V" << t << " drive_" << t << " 0 PWL(0 0 5m 10 0.1 10)\n"
     << "XT" << t << " drive_" << t << " 0 vel_" << t
     << " 0 HDLTRANSV a=1e-4 d=0.15m er=1\n"
     << "XM" << t << " vel_" << t << " MASS m=1e-4\n"
     << "XK" << t << " vel_" << t << " 0 SPRING k=200\n"
     << "XD" << t << " vel_" << t << " 0 DAMPER alpha=40m\n"
     << "XI" << t << " " << out.disp_node << " vel_" << t << " INTEG\n"
     << ".tran 0.1m 60m\n"
     << ".end\n";
  out.text = os.str();
  return out;
}

namespace {

/// A TRANSARRAY behind a 10 ohm bus resistor. `drive` is the source's
/// waveform text; `analysis` the analysis card.
ArrayNetlist array_netlist(const char* workload, std::uint64_t seed, int cells,
                           int probe_cell, const std::string& drive,
                           const std::string& analysis) {
  SeedRng rng(seed ^ 0xa77a7ull);
  const std::string t = tag_of(rng);
  const std::string array = "XA" + t;
  ArrayNetlist out;
  out.probe_spring = array + "_" + std::to_string(probe_cell) + "_k";
  std::ostringstream os;
  os << "* usysbench " << workload << " seed=" << seed << "\n"
     << "V" << t << " drv_" << t << " 0 " << drive << "\n"
     << "Rb" << t << " drv_" << t << " bus_" << t << " 10\n"
     << array << " bus_" << t << " 0 TRANSARRAY n=" << cells
     << " a=1e-8 d=2e-6 m=1e-9 k=25 alpha=1e-4 dspread=0.1\n"
     << analysis << "\n"
     << ".end\n";
  out.text = os.str();
  return out;
}

}  // namespace

ArrayNetlist array_tran_netlist(std::uint64_t seed, Size size) {
  const int cells = size == Size::full ? 1000 : 40;
  return array_netlist("array_tran_1k", seed, cells, cells / 3,
                       "PULSE(0 5 1u 1u 1u 3u 8u)", ".tran 0.1u " + std::string(kArrayTstop));
}

ArrayNetlist array_op_netlist(std::uint64_t seed, Size size) {
  const int cells = size == Size::full ? 20000 : 400;
  return array_netlist("array_op_20k", seed, cells, cells / 3, "5", ".op");
}

int mc_cells(Size size) { return size == Size::full ? 2000 : 100; }

std::string mc_run_netlist(int cells, const std::string& drive) {
  std::ostringstream os;
  os << "* usysbench mc_server drive=" << drive << "\n"
     << "Vd drv 0 " << drive << "\n"
     << "Rb drv bus 10\n"
     << "XA bus 0 TRANSARRAY n=" << cells
     << " a=1e-8 d=2e-6 m=1e-9 k=25 alpha=1e-4 dspread=0.1\n"
     << ".op\n"
     << ".end\n";
  return os.str();
}

std::string mc_sweep_netlist(int cells) {
  std::ostringstream os;
  os << "* usysbench mc_server sweep\n"
     << ".param gap dist=normal(2e-6, 0.02e-6)\n"
     << ".param vdrive dist=uniform(4, 6)\n"
     << ".measure vbus op:max max=5.5\n"
     << "Vd drv 0 {vdrive}\n"
     << "Rb drv bus 10\n"
     << "XA bus 0 TRANSARRAY n=" << cells
     << " a=1e-8 d={gap} m=1e-9 k=25 alpha=1e-4 dspread=0.1\n"
     << ".op\n"
     << ".end\n";
  return os.str();
}

}  // namespace usysbench
