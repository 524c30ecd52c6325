//===- bench/BenchUtil.cpp - Shared experiment-harness helpers ------------===//

#include "BenchUtil.h"
#include <algorithm>
#include <cinttypes>
#include <cstring>

namespace cgcbench {

void printBanner(const char *ExperimentId, const char *Description,
                 const char *PaperResult) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s: %s\n", ExperimentId, Description);
  std::printf("paper reports: %s\n", PaperResult);
  std::printf("==============================================================="
              "=\n");
}

std::string percentRange(double Lo, double Hi) {
  char Buffer[64];
  if (Lo == Hi)
    std::snprintf(Buffer, sizeof(Buffer), "%.1f%%", Lo * 100.0);
  else
    std::snprintf(Buffer, sizeof(Buffer), "%.1f-%.1f%%", Lo * 100.0,
                  Hi * 100.0);
  return Buffer;
}

double percentile(std::vector<double> Samples, double Fraction) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t Index =
      static_cast<size_t>(Fraction * static_cast<double>(Samples.size() - 1) +
                          0.5);
  return Samples[std::min(Index, Samples.size() - 1)];
}

bool consumeJsonFlag(int &Argc, char **Argv) {
  bool Found = false;
  int Out = 1;
  for (int In = 1; In < Argc; ++In) {
    if (std::strcmp(Argv[In], "--json") == 0) {
      Found = true;
      continue;
    }
    Argv[Out++] = Argv[In];
  }
  Argc = Out;
  return Found;
}

namespace {

std::string quoted(const std::string &Value) {
  std::string Out = "\"";
  for (char C : Value) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  Out += '"';
  return Out;
}

std::string encode(uint64_t Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%" PRIu64, Value);
  return Buffer;
}

std::string encode(double Value) {
  char Buffer[48];
  std::snprintf(Buffer, sizeof(Buffer), "%.6g", Value);
  return Buffer;
}

void printFields(
    std::FILE *Out,
    const std::vector<std::pair<std::string, std::string>> &Fields,
    const char *Indent, bool TrailingComma = false) {
  for (size_t I = 0; I != Fields.size(); ++I)
    std::fprintf(Out, "%s%s: %s%s\n", Indent,
                 quoted(Fields[I].first).c_str(), Fields[I].second.c_str(),
                 TrailingComma || I + 1 != Fields.size() ? "," : "");
}

} // namespace

JsonReport::JsonReport(std::string Id) : ExperimentId(std::move(Id)) {}

void JsonReport::set(const char *Key, uint64_t Value) {
  Scalars.emplace_back(Key, encode(Value));
}
void JsonReport::set(const char *Key, double Value) {
  Scalars.emplace_back(Key, encode(Value));
}
void JsonReport::set(const char *Key, const std::string &Value) {
  Scalars.emplace_back(Key, quoted(Value));
}

void JsonReport::beginRow() { Rows.emplace_back(); }

void JsonReport::rowSet(const char *Key, uint64_t Value) {
  Rows.back().emplace_back(Key, encode(Value));
}
void JsonReport::rowSet(const char *Key, double Value) {
  Rows.back().emplace_back(Key, encode(Value));
}
void JsonReport::rowSet(const char *Key, const std::string &Value) {
  Rows.back().emplace_back(Key, quoted(Value));
}

std::string JsonReport::write() const {
  std::string FileId = ExperimentId;
  for (char &C : FileId)
    if (C == ' ')
      C = '_';
  std::string Path = "BENCH_" + FileId + ".json";
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return "";
  std::fprintf(Out, "{\n  \"experiment\": %s,\n",
               quoted(ExperimentId).c_str());
  printFields(Out, Scalars, "  ", /*TrailingComma=*/true);
  std::fprintf(Out, "  \"results\": [\n");
  for (size_t I = 0; I != Rows.size(); ++I) {
    std::fprintf(Out, "    {\n");
    printFields(Out, Rows[I], "      ");
    std::fprintf(Out, "    }%s\n", I + 1 != Rows.size() ? "," : "");
  }
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);
  return Path;
}

} // namespace cgcbench
