// Seeded workload inputs (netlists.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace usysbench {

/// Transient stop time of array_tran_1k: one full drive pulse (rise at 1u,
/// fall at 5u, next rise at 9u), short enough for dozens of jobs per run.
inline constexpr const char* kArrayTstop = "10u";

struct Fig3Netlist {
  std::string text;
  std::string disp_node;  ///< integrated plate displacement [m]
};
Fig3Netlist fig3_netlist(std::uint64_t seed);

struct ArrayNetlist {
  std::string text;
  std::string probe_spring;  ///< spring of the probed cell (force / k = x)
};
ArrayNetlist array_tran_netlist(std::uint64_t seed, Size size);
ArrayNetlist array_op_netlist(std::uint64_t seed, Size size);

/// Cells of the mc_server topology.
int mc_cells(Size size);
/// The mc_server `run` netlist: one fixed topology, drive value in the text.
std::string mc_run_netlist(int cells, const std::string& drive);
/// The mc_server `sweep` netlist: normal(gap) x uniform(vdrive) draws and a
/// `.measure` yield bound.
std::string mc_sweep_netlist(int cells);

}  // namespace usysbench
