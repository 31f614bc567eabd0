// Reproduces the RENDER characterization: Tables 3-4 and Figures 6-8.
#include <iostream>

#include "analysis/report.hpp"
#include "analysis/tables.hpp"
#include "analysis/timeline.hpp"
#include "bench_util.hpp"
#include "core/experiment.hpp"

int main(int argc, char** argv) {
  using namespace paraio;
  const bench::Options opt = bench::parse_args(argc, argv);

  std::cout << "=== RENDER (terrain rendering) on simulated Paragon XP/S, "
               "gateway + 128 renderers, 100 frames ===\n";
  const core::ExperimentResult r =
      core::run_experiment(core::render_experiment());
  const double duration = r.run_end - r.run_start;
  const double init = r.phases.end_of("initialization") - r.run_start;
  std::cout << "run time: " << duration << " s, initialization " << init
            << " s (paper: ~470 s total, init ends ~210 s)\n\n";

  analysis::OperationTable t3(r.trace);
  std::cout << analysis::to_text(
      t3, "Table 3: Number, size, and duration of I/O operations (RENDER)");
  std::cout << "  paper reference: Read 121/8,457B; AsynchRead "
               "436/880,849,125B/2.8%; I/O Wait 436/53.7%;\n"
               "                   Write 300/98,305,400B/19.3%; Seek 4; Open "
               "106/19.9%; Close 101/4.2%\n\n";

  analysis::SizeTable t4(r.trace);
  std::cout << analysis::to_text(t4, "Table 4: Read/write sizes (RENDER)");
  std::cout << "  paper reference: Read 121 / 0 / 0 / 436;  Write 200 / 0 / "
               "0 / 100\n\n";

  const double read_s = t3.row(pablo::Op::kIoWait).node_time +
                        t3.row(pablo::Op::kAsyncRead).node_time;
  std::cout << "effective gateway read throughput: "
            << static_cast<double>(t3.row(pablo::Op::kAsyncRead).bytes) /
                   read_s / 1e6
            << " MB/s (paper: ~9.5 MB/s)\n\n";

  bench::write_csv(opt, "render_table3.csv", analysis::to_csv(t3));
  bench::write_csv(opt, "render_table4.csv", analysis::to_csv(t4));

  const auto reads = analysis::timeline(r.trace, analysis::OpFamily::kReads);
  const auto writes = analysis::timeline(r.trace, analysis::OpFamily::kWrites);
  const auto files = analysis::file_access_map(r.trace);
  bench::write_csv(opt, "render_fig6_reads.csv", analysis::to_csv(reads));
  bench::write_csv(opt, "render_fig7_writes.csv", analysis::to_csv(writes));
  bench::write_csv(opt, "render_fig8_files.csv", analysis::to_csv(files));

  if (opt.figures) {
    analysis::PlotOptions po;
    po.log_y = true;
    po.title = "Figure 6: Read operation timeline (RENDER), size (bytes)";
    std::cout << analysis::ascii_plot(reads, po) << '\n';
    po.title = "Figure 7: Write operation timeline (RENDER), size (bytes)";
    std::cout << analysis::ascii_plot(writes, po) << '\n';
    analysis::PlotOptions fo;
    fo.title = "Figure 8: File access timeline (RENDER), file id; r/w marks";
    std::cout << analysis::ascii_plot(files, fo) << '\n';
  }
  return 0;
}
