// Pins README's metric catalog to the metric families the library
// registers: every "lkp_..." family literal under src/ must have a
// catalog row, and every catalog row must name a family src/ registers.

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

// Family names of every "lkp_..." string literal in src/; a label set
// such as {path="..."} ends the family name.
std::set<std::string> SourceFamilies() {
  const std::regex literal("\"(lkp_[a-z0-9_]+)");
  std::set<std::string> out;
  for (const auto& entry :
       fs::recursive_directory_iterator(kSourceDir / "src")) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    const std::string text = ReadFile(entry.path());
    for (std::sregex_iterator it(text.begin(), text.end(), literal), end;
         it != end; ++it) {
      out.insert((*it)[1].str());
    }
  }
  return out;
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

// Families named in the first column of README's metric catalog table
// (the table whose header row is "| metric | type | meaning |").
std::set<std::string> CatalogFamilies() {
  std::istringstream readme(ReadFile(kSourceDir / "README.md"));
  std::set<std::string> out;
  std::string line;
  bool in_table = false;
  while (std::getline(readme, line)) {
    if (line.rfind("| metric | type | meaning |", 0) == 0) {
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
    for (size_t i = 1; i < parts.size(); i += 2) {
      if (parts[i].rfind("lkp_", 0) == 0) ExpandName(parts[i], &out);
    }
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

}  // namespace
}  // namespace lkpdpp
