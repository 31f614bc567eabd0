// Reproduces the HTF characterization: Tables 5-6 and Figures 9-17.
#include <iostream>

#include "analysis/report.hpp"
#include "analysis/tables.hpp"
#include "analysis/timeline.hpp"
#include "bench_util.hpp"
#include "core/experiment.hpp"

int main(int argc, char** argv) {
  using namespace paraio;
  const bench::Options opt = bench::parse_args(argc, argv);

  std::cout << "=== HTF (Hartree-Fock) on simulated Paragon XP/S, 128 nodes, "
               "16 atoms ===\n";
  const core::ExperimentResult r =
      core::run_experiment(core::htf_experiment());
  const double setup_end = r.phases.end_of("psetup");
  const double pargos_end = r.phases.end_of("pargos");
  const double scf_end = r.phases.end_of("pscf");
  std::cout << "phase durations: psetup " << setup_end - r.run_start
            << " s, pargos " << pargos_end - setup_end << " s, pscf "
            << scf_end - pargos_end
            << " s (paper: 127 / 1,173 / 1,008 s)\n\n";

  struct Phase {
    const char* name;
    const char* paper;
    double t0, t1;
    const char* sizes_ref;
  };
  const Phase phases[] = {
      {"HTF Initialization",
       "All 832 ops, 7.27MB; Read 371/3.52MB/27.8%; Write 452/3.74MB/10.0%; "
       "Seek 2; Open 4/57.0%; Close 3",
       0.0, setup_end, "Read 151/220/0/0; Write 218/234/0/0"},
      {"HTF Integral Calculation",
       "All 17,854 ops, 699MB; Read 145/34,393B; Write 8,535/698.96MB/31.2%; "
       "Seek 130; Open 130/63.4%; Close 129; Lsize 128; Forflush 8,657/5.0%",
       setup_end, pargos_end, "Read 143/2/0/0; Write 2/1/8,532/0"},
      {"HTF Self-Consistent Field Calculation",
       "All 52,832 ops, 4.21GB; Read 51,499/4.20GB/98.4%; Write "
       "207/3.85MB/0.02%; Seek 813; Open 157/1.6%; Close 156",
       pargos_end, scf_end, "Read 165/109/51,225/0; Write 43/158/6/0"},
  };

  int idx = 0;
  for (const Phase& p : phases) {
    analysis::OperationTable t(r.trace, p.t0, p.t1);
    std::cout << analysis::to_text(
        t, std::string("Table 5 (") + p.name + ")");
    std::cout << "  paper reference: " << p.paper << "\n\n";
    analysis::SizeTable s(r.trace, p.t0, p.t1);
    std::cout << analysis::to_text(
        s, std::string("Table 6 (") + p.name + ")");
    std::cout << "  paper reference: " << p.sizes_ref << "\n\n";
    bench::write_csv(opt, "htf_table5_" + std::to_string(idx) + ".csv",
                     analysis::to_csv(t));
    bench::write_csv(opt, "htf_table6_" + std::to_string(idx) + ".csv",
                     analysis::to_csv(s));
    ++idx;
  }

  struct Fig {
    const char* title;
    analysis::OpFamily family;
    double t0, t1;
    const char* csv;
  };
  const Fig figs[] = {
      {"Figure 9: Read timeline (HTF initialization)",
       analysis::OpFamily::kReads, 0.0, setup_end, "htf_fig9.csv"},
      {"Figure 10: Write timeline (HTF initialization)",
       analysis::OpFamily::kWrites, 0.0, setup_end, "htf_fig10.csv"},
      {"Figure 11: Read timeline (HTF integral calculation)",
       analysis::OpFamily::kReads, setup_end, pargos_end, "htf_fig11.csv"},
      {"Figure 12: Write timeline (HTF integral calculation)",
       analysis::OpFamily::kWrites, setup_end, pargos_end, "htf_fig12.csv"},
      {"Figure 13: Read timeline (HTF self-consistent field)",
       analysis::OpFamily::kReads, pargos_end, scf_end, "htf_fig13.csv"},
      {"Figure 14: Write timeline (HTF self-consistent field)",
       analysis::OpFamily::kWrites, pargos_end, scf_end, "htf_fig14.csv"},
  };
  for (const Fig& f : figs) {
    auto series = analysis::timeline(r.trace, f.family, f.t0, f.t1);
    bench::write_csv(opt, f.csv, analysis::to_csv(series));
    if (opt.figures) {
      analysis::PlotOptions po;
      po.log_y = true;
      po.title = std::string(f.title) + ", size (bytes)";
      std::cout << analysis::ascii_plot(series, po) << '\n';
    }
  }

  // Figures 15-17: per-phase file access maps.
  const struct {
    const char* title;
    double t0, t1;
    const char* csv;
  } maps[] = {
      {"Figure 15: File access timeline (HTF initialization)", 0.0, setup_end,
       "htf_fig15.csv"},
      {"Figure 16: File access timeline (HTF integral calculation)",
       setup_end, pargos_end, "htf_fig16.csv"},
      {"Figure 17: File access timeline (HTF self-consistent field)",
       pargos_end, scf_end, "htf_fig17.csv"},
  };
  for (const auto& m : maps) {
    auto series = analysis::file_access_map(r.trace, m.t0, m.t1);
    bench::write_csv(opt, m.csv, analysis::to_csv(series));
    if (opt.figures) {
      analysis::PlotOptions po;
      po.title = std::string(m.title) + ", file id; r/w marks";
      std::cout << analysis::ascii_plot(series, po) << '\n';
    }
  }
  return 0;
}
