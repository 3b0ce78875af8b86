// Pins two README tables to src/: the metric catalog (every "lkp_..."
// family literal under src/ has a catalog row, and every catalog row
// names a family src/ registers) and the trace span table (the same, for
// every LKP_TRACE_SPAN("...") and RecordSpan("...") literal). Also pins
// the metrics recorded in BENCH_baseline.json to families src/ still
// registers.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace lkpdpp {
namespace {

namespace fs = std::filesystem;

const fs::path kSourceDir = LKPDPP_SOURCE_DIR;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// First capture group of every match of `pattern` in src/'s .h and .cc
// files.
std::set<std::string> SourceMatches(const std::regex& pattern) {
  std::set<std::string> out;
  for (const auto& entry :
       fs::recursive_directory_iterator(kSourceDir / "src")) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    const std::string text = ReadFile(entry.path());
    for (std::sregex_iterator it(text.begin(), text.end(), pattern), end;
         it != end; ++it) {
      out.insert((*it)[1].str());
    }
  }
  return out;
}

// Family names of every "lkp_..." string literal in src/; a label set
// such as {path="..."} ends the family name.
std::set<std::string> SourceFamilies() {
  return SourceMatches(std::regex("\"(lkp_[a-z0-9_]+)"));
}

// Span names of every LKP_TRACE_SPAN("...") and RecordSpan("...")
// literal in src/.
std::set<std::string> SourceSpans() {
  return SourceMatches(
      std::regex("(?:LKP_TRACE_SPAN|RecordSpan)\\(\"([^\"]+)\""));
}

// Expands the first {a,b,...} group (one without '=', which marks a
// label set) recursively, then strips any trailing label set.
void ExpandName(const std::string& name, std::set<std::string>* out) {
  size_t open = name.find('{');
  while (open != std::string::npos) {
    const size_t close = name.find('}', open);
    const std::string group = name.substr(open + 1, close - open - 1);
    if (group.find('=') == std::string::npos) {
      std::stringstream alternatives(group);
      std::string alt;
      while (std::getline(alternatives, alt, ',')) {
        ExpandName(name.substr(0, open) + alt + name.substr(close + 1), out);
      }
      return;
    }
    open = name.find('{', close);
  }
  out->insert(name.substr(0, name.find('{')));
}

// Code spans in the first column of the README table whose header row
// starts with `header`.
std::vector<std::string> ReadmeFirstColumnCode(const std::string& header) {
  std::istringstream readme(ReadFile(kSourceDir / "README.md"));
  std::vector<std::string> out;
  std::string line;
  bool in_table = false;
  while (std::getline(readme, line)) {
    if (line.rfind(header, 0) == 0) {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    if (line.empty() || line[0] != '|') break;
    const std::string first_cell = line.substr(1, line.find('|', 1) - 1);
    // Code spans sit between odd and even backticks.
    std::vector<std::string> parts;
    std::stringstream cell(first_cell);
    std::string part;
    while (std::getline(cell, part, '`')) parts.push_back(part);
    for (size_t i = 1; i < parts.size(); i += 2) out.push_back(parts[i]);
  }
  return out;
}

// Families named in README's metric catalog table.
std::set<std::string> CatalogFamilies() {
  std::set<std::string> out;
  for (const std::string& code :
       ReadmeFirstColumnCode("| metric | type | meaning |")) {
    if (code.rfind("lkp_", 0) == 0) ExpandName(code, &out);
  }
  return out;
}

// Families named in BENCH_baseline.json's obs_metrics section, the
// metrics dump bench/record_baseline.sh writes as the file's last
// section.
std::set<std::string> BaselineFamilies() {
  const std::string text = ReadFile(kSourceDir / "BENCH_baseline.json");
  const size_t section = text.find("\"obs_metrics\"");
  std::set<std::string> out;
  if (section == std::string::npos) return out;
  const std::regex pattern("\"(lkp_[a-z0-9_]+)");
  for (std::sregex_iterator it(text.begin() + static_cast<long>(section),
                               text.end(), pattern),
       end;
       it != end; ++it) {
    out.insert((*it)[1].str());
  }
  return out;
}

TEST(MetricCatalogTest, ExpandsBracesAndStripsLabels) {
  std::set<std::string> out;
  ExpandName("lkp_a_{x,y}_total", &out);
  ExpandName("lkp_b_total{shard=\"i\"}", &out);
  EXPECT_EQ(out, (std::set<std::string>{"lkp_a_x_total", "lkp_a_y_total",
                                        "lkp_b_total"}));
}

TEST(MetricCatalogTest, ReadmeCatalogMatchesSource) {
  const std::set<std::string> source = SourceFamilies();
  const std::set<std::string> catalog = CatalogFamilies();
  ASSERT_FALSE(source.empty()) << "no metric literals under "
                               << (kSourceDir / "src");
  ASSERT_FALSE(catalog.empty()) << "no metric catalog table in README.md";
  for (const std::string& family : source) {
    EXPECT_TRUE(catalog.count(family) > 0)
        << family << " is registered in src/ but missing from README's "
        << "metric catalog";
  }
  for (const std::string& family : catalog) {
    EXPECT_TRUE(source.count(family) > 0)
        << family << " is in README's metric catalog but src/ never "
        << "registers it";
  }
}

TEST(MetricCatalogTest, BaselineMetricsAreRegisteredInSource) {
  const std::set<std::string> source = SourceFamilies();
  const std::set<std::string> baseline = BaselineFamilies();
  ASSERT_FALSE(baseline.empty())
      << "no obs_metrics section in BENCH_baseline.json";
  for (const std::string& family : baseline) {
    EXPECT_TRUE(source.count(family) > 0)
        << family << " is recorded in BENCH_baseline.json but src/ never "
        << "registers it (re-record with bench/record_baseline.sh)";
  }
}

TEST(SpanCatalogTest, ReadmeSpanTableMatchesSource) {
  const std::set<std::string> source = SourceSpans();
  const std::vector<std::string> rows = ReadmeFirstColumnCode("| span | covers |");
  const std::set<std::string> table(rows.begin(), rows.end());
  ASSERT_FALSE(source.empty()) << "no span literals under "
                               << (kSourceDir / "src");
  ASSERT_FALSE(table.empty()) << "no span table in README.md";
  for (const std::string& span : source) {
    EXPECT_TRUE(table.count(span) > 0)
        << span << " is recorded in src/ but missing from README's span "
        << "table";
  }
  for (const std::string& span : table) {
    EXPECT_TRUE(source.count(span) > 0)
        << span << " is in README's span table but src/ never records it";
  }
}

}  // namespace
}  // namespace lkpdpp
