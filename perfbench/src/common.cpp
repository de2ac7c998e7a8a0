#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Entry{value, unit};
}

bool Report::has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

void Report::check_failed(const std::string& reason) {
  correct_ = false;
  notes_.push_back("CHECK FAILED: " + reason);
}

void Report::count_failure(const std::string& solver, const std::string& code) {
  ++failures_[solver + "/" + code];
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

void Report::print(const std::vector<std::string>& wanted) const {
  bool complete = correct_;
  std::string missing;
  for (const auto& name : wanted) {
    if (!has(name)) {
      complete = false;
      missing += " " + name;
    }
  }
  for (const auto& line : notes_) {
    std::printf("# %s\n", line.c_str());
  }
  for (const auto& [key, count] : failures_) {
    std::printf("# failure %s: %llu\n", key.c_str(),
                static_cast<unsigned long long>(count));
  }
  if (!missing.empty()) {
    std::printf("# CHECK FAILED: metrics not produced:%s\n", missing.c_str());
  }
  std::string json = "{\"correct\": ";
  json += complete ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& name : wanted) {
    if (!has(name)) {
      continue;
    }
    const auto& entry = metrics_.at(name);
    if (!first) {
      json += ", ";
    }
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(entry.value) +
            ", \"unit\": \"" + entry.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double median_of(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) {
    return tail;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Ten samples beyond the reported one; with fewer than eleven samples the
  // maximum is the best the run can say.
  const std::size_t index = n > 10 ? n - 11 : n - 1;
  tail.value = values[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(n);
  return tail;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_peak_rss_mb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double median_setup_seconds(int times, const std::function<void()>& teardown,
                            const std::function<void()>& setup) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    teardown();
    const auto start = Clock::now();
    setup();
    samples.push_back(seconds_between(start, Clock::now()));
  }
  return median_of(std::move(samples));
}

Tail windowed_tail(const std::vector<double>& values, std::size_t* windows) {
  // With many samples the ten-beyond tail sits so far out that one host
  // hiccup decides it.  The samples (in send order) are cut into windows
  // of at least kWindow each, and the median of the windows' ten-beyond
  // tails (about p99) is taken.
  constexpr std::size_t kWindow = 1000;
  const std::size_t count = std::max<std::size_t>(values.size() / kWindow, 1);
  std::vector<double> tails;
  Tail tail;
  for (std::size_t w = 0; w < count; ++w) {
    const auto begin = values.begin() + static_cast<std::ptrdiff_t>(w * values.size() / count);
    const auto end = values.begin() + static_cast<std::ptrdiff_t>((w + 1) * values.size() / count);
    tail = tail_of(std::vector<double>(begin, end));
    tails.push_back(tail.value);
  }
  tail.value = median_of(std::move(tails));
  if (windows != nullptr) {
    *windows = count;
  }
  return tail;
}

void report_latency(Report& report, const std::vector<double>& seconds,
                    const std::string& label, const std::string& suffix) {
  std::size_t windows = 0;
  const Tail tail = windowed_tail(seconds, &windows);
  report.set("latency_p50_ms" + suffix, median_of(seconds) * 1e3, "ms");
  report.set("latency_tail_ms" + suffix, tail.value * 1e3, "ms");
  char line[240];
  std::snprintf(line, sizeof line,
                "%s latency_tail_ms%s = %.6g ms: the median over %zu windows of p%.3f of "
                "~%zu samples each (%zu samples in all)",
                label.c_str(), suffix.c_str(), tail.value * 1e3, windows, tail.percentile,
                tail.samples, seconds.size());
  report.note(line);
}

malsched::core::Instance uniform_instance(std::size_t n, double processors,
                                          malsched::support::Rng& rng) {
  std::vector<malsched::core::Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    malsched::core::Task task;
    task.volume = rng.uniform_pos(1.0);
    task.width = rng.uniform_pos(processors);
    task.weight = rng.uniform_pos(1.0);
    tasks.push_back(task);
  }
  return malsched::core::Instance(processors, std::move(tasks));
}

malsched::core::Instance represent(const malsched::core::Instance& base,
                                   malsched::support::Rng& rng) {
  const double volume_scale = rng.uniform(0.25, 4.0);
  const double weight_scale = rng.uniform(0.25, 4.0);
  std::vector<malsched::core::Task> tasks = base.tasks();
  for (auto& task : tasks) {
    task.volume *= volume_scale;
    task.weight *= weight_scale;
  }
  for (std::size_t i = tasks.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(tasks[i - 1], tasks[j]);
  }
  return malsched::core::Instance(base.processors(), std::move(tasks));
}

bool close_rel(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({std::abs(a), std::abs(b), 1e-300});
}

bool same_answer(const malsched::service::SolveResult& got,
                 const malsched::service::SolveResult& want) {
  if (got.ok() != want.ok()) {
    return false;
  }
  if (!got.ok()) {
    return got.error().code == want.error().code;
  }
  if (!close_rel(got.objective(), want.objective(), 1e-9) ||
      got.completions().size() != want.completions().size()) {
    return false;
  }
  for (std::size_t i = 0; i < got.completions().size(); ++i) {
    if (!close_rel(got.completions()[i], want.completions()[i], 1e-9)) {
      return false;
    }
  }
  return true;
}

std::string describe_difference(const malsched::service::SolveResult& got,
                                const malsched::service::SolveResult& want) {
  const auto side = [](const malsched::service::SolveResult& r) {
    return r.ok() ? std::string("ok") : r.error().to_string();
  };
  if (!got.ok() || !want.ok()) {
    return "got " + side(got) + ", uncached " + side(want);
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < got.completions().size() && i < want.completions().size(); ++i) {
    const double a = got.completions()[i];
    const double b = want.completions()[i];
    worst = std::max(worst, std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1e-300}));
  }
  char line[160];
  std::snprintf(line, sizeof line, "objective rel diff %.3g, worst completion rel diff %.3g",
                std::abs(got.objective() - want.objective()) /
                    std::max(std::abs(want.objective()), 1e-300),
                worst);
  return line;
}

}  // namespace perfbench
