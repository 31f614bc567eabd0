// Reproduces the ESCAT characterization: Tables 1-2 and Figures 2-5.
#include <iostream>

#include "analysis/report.hpp"
#include "analysis/tables.hpp"
#include "analysis/timeline.hpp"
#include "bench_util.hpp"
#include "core/experiment.hpp"

int main(int argc, char** argv) {
  using namespace paraio;
  const bench::Options opt = bench::parse_args(argc, argv);

  std::cout << "=== ESCAT (electron scattering) on simulated Paragon XP/S, "
               "128 nodes ===\n";
  const core::ExperimentResult r =
      core::run_experiment(core::escat_experiment());
  const double duration = r.run_end - r.run_start;
  std::cout << "run time: " << duration << " s (paper: ~6,000 s)\n\n";

  analysis::OperationTable t1(r.trace);
  std::cout << analysis::to_text(
      t1, "Table 1: Number, size, and duration of I/O operations (ESCAT)");
  std::cout << "  paper reference: All 26,418-26,448 ops, 60,983,136 B; "
               "Read 560/34.2MB/0.21%;\n"
               "                   Write 13,330/26.76MB/41.9%; Seek "
               "12,034/53.8%; Open 262/3.0%; Close 262/1.0%\n\n";

  analysis::SizeTable t2(r.trace);
  std::cout << analysis::to_text(t2, "Table 2: Read/write sizes (ESCAT)");
  std::cout << "  paper reference: Read 297 / 3 / 260 / 0;  Write 13,330 / 0 "
               "/ 0 / 0\n\n";

  bench::write_csv(opt, "escat_table1.csv", analysis::to_csv(t1));
  bench::write_csv(opt, "escat_table2.csv", analysis::to_csv(t2));

  // Figure 4 quantification: write-group spacing across the quadrature phase.
  {
    const double quad_end = r.phases.end_of("quadrature");
    pablo::Trace quad;
    for (const auto& e : r.trace.events()) {
      if (e.op == pablo::Op::kWrite && e.timestamp < quad_end) {
        quad.on_event(e);
      }
    }
    auto clusters = analysis::bursts(quad, analysis::OpFamily::kWrites, 30.0);
    auto gaps = analysis::burst_gaps(clusters);
    std::cout << "Figure 4 structure: " << clusters.size()
              << " write groups";
    if (!gaps.empty()) {
      std::cout << ", first gap " << gaps.front() << " s, last gap "
                << gaps.back() << " s, trend " << analysis::gap_trend(gaps)
                << " s/group (paper: ~160 s shrinking to ~80 s)";
    }
    std::cout << "\n\n";
  }

  const auto reads = analysis::timeline(r.trace, analysis::OpFamily::kReads);
  const auto writes = analysis::timeline(r.trace, analysis::OpFamily::kWrites);
  const auto files = analysis::file_access_map(r.trace);
  bench::write_csv(opt, "escat_fig2_reads.csv", analysis::to_csv(reads));
  bench::write_csv(opt, "escat_fig4_writes.csv", analysis::to_csv(writes));
  bench::write_csv(opt, "escat_fig5_files.csv", analysis::to_csv(files));

  if (opt.figures) {
    analysis::PlotOptions po;
    po.log_y = true;
    po.title = "Figure 2: Read operation timeline (ESCAT), size (bytes)";
    std::cout << analysis::ascii_plot(reads, po) << '\n';

    const double init_end = r.phases.end_of("initialization");
    po.title = "Figure 3: Read operation detail (ESCAT initial phase)";
    std::cout << analysis::ascii_plot(
                     analysis::timeline(r.trace, analysis::OpFamily::kReads,
                                        0.0, init_end + 1.0),
                     po)
              << '\n';

    po.title = "Figure 4: Write operation timeline (ESCAT), size (bytes)";
    std::cout << analysis::ascii_plot(writes, po) << '\n';

    analysis::PlotOptions fo;
    fo.title = "Figure 5: File access timeline (ESCAT), file id; r/w marks";
    std::cout << analysis::ascii_plot(files, fo) << '\n';
  }
  return 0;
}
