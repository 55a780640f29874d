#include "span_rollup.hpp"

#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <vector>

namespace perfbench {
namespace {

struct OpenSpan {
  std::string name;
  std::int64_t begin_us = 0;
  std::int64_t child_us = 0;
};

/// streambuf that consumes the Chrome export line by line.  Event lines
/// look like {"name": "sim.window", "ph": "B", "ts": 12, "pid": 1, "tid": 0,
/// ...}; every other line (the array brackets) is skipped.
class RollupBuf final : public std::streambuf {
 public:
  explicit RollupBuf(std::map<std::string, SpanTotals>& out) : out_(out) {}

  void finish() {
    if (!line_.empty()) consume_line();
    for (const auto& stack : stacks_)
      if (!stack.empty())
        throw std::runtime_error("span rollup: unterminated span '" +
                                 stack.back().name + "'");
  }

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) put(traits_type::to_char_type(ch));
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c == '\n') {
      consume_line();
      line_.clear();
    } else {
      line_.push_back(c);
    }
  }

  /// Text between `key` and the next delimiter in `delims`.
  [[nodiscard]] std::string field(const char* key, const char* delims) const {
    const std::size_t at = line_.find(key);
    if (at == std::string::npos)
      throw std::runtime_error("span rollup: no " + std::string(key) +
                               " in trace line: " + line_);
    const std::size_t begin = at + std::char_traits<char>::length(key);
    return line_.substr(begin, line_.find_first_of(delims, begin) - begin);
  }

  void consume_line() {
    if (line_.rfind("{\"name\": \"", 0) != 0) return;
    const std::string name = field("{\"name\": \"", "\"");
    const std::string phase = field("\"ph\": \"", "\"");
    const std::int64_t ts = std::strtoll(field("\"ts\": ", ",}").c_str(),
                                         nullptr, 10);
    const long tid = std::strtol(field("\"tid\": ", ",}").c_str(), nullptr,
                                 10);
    if (tid < 0) throw std::runtime_error("span rollup: negative tid");
    if (static_cast<std::size_t>(tid) >= stacks_.size())
      stacks_.resize(static_cast<std::size_t>(tid) + 1);
    std::vector<OpenSpan>& stack = stacks_[static_cast<std::size_t>(tid)];
    if (phase == "B") {
      stack.push_back({name, ts, 0});
      return;
    }
    if (phase != "E" || stack.empty() || stack.back().name != name)
      throw std::runtime_error("span rollup: unmatched event: " + line_);
    const OpenSpan span = std::move(stack.back());
    stack.pop_back();
    const std::int64_t dur = ts - span.begin_us;
    SpanTotals& totals = out_[span.name];
    ++totals.count;
    totals.self_s += static_cast<double>(dur - span.child_us) * 1e-6;
    if (!stack.empty()) stack.back().child_us += dur;
  }

  std::map<std::string, SpanTotals>& out_;
  std::string line_;
  std::vector<std::vector<OpenSpan>> stacks_;  ///< Open spans per tid.
};

}  // namespace

std::map<std::string, SpanTotals> rollup_spans(const ww::obs::Trace& trace) {
  std::map<std::string, SpanTotals> totals;
  RollupBuf buf(totals);
  std::ostream out(&buf);
  out.exceptions(std::ios::badbit);  // surface parse errors from the buffer
  trace.write_chrome_json(out);
  out.flush();
  buf.finish();
  return totals;
}

}  // namespace perfbench
