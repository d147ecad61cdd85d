// Builds a repository in the layout older granula versions wrote:
// <name>.json archive bodies and an index.json whose entries carry
// "format": "json". The current repository only imports such a directory
// (ArchiveRepository::Pack); it never writes one.

#ifndef GRANULA_TESTS_LEGACY_REPOSITORY_H_
#define GRANULA_TESTS_LEGACY_REPOSITORY_H_

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "granula/archive/archive.h"

namespace granula::core {

struct LegacyArchive {
  std::string name;
  const PerformanceArchive* archive = nullptr;
  int64_t saved_unix_seconds = 0;
};

inline void WriteLegacyRepository(const std::string& dir,
                                  const std::vector<LegacyArchive>& archives) {
  std::filesystem::create_directories(dir);
  Json entries = Json::MakeObject();
  for (const LegacyArchive& legacy : archives) {
    const PerformanceArchive& archive = *legacy.archive;
    std::ofstream(dir + "/" + legacy.name + ".json", std::ios::binary)
        << archive.ToJsonString();
    Json j = Json::MakeObject();
    j["platform"] = archive.job_metadata.at("platform");
    j["algorithm"] = archive.job_metadata.at("algorithm");
    j["status"] = std::string(ArchiveStatusName(archive.status));
    j["total_s"] = archive.root->Duration().seconds();
    j["ops"] = archive.OperationCount();
    j["saved"] = legacy.saved_unix_seconds;
    j["format"] = "json";
    entries[legacy.name] = std::move(j);
  }
  Json index = Json::MakeObject();
  index["version"] = static_cast<int64_t>(1);
  index["entries"] = std::move(entries);
  std::ofstream(dir + "/index.json", std::ios::binary) << index.Dump(2) << "\n";
}

}  // namespace granula::core

#endif  // GRANULA_TESTS_LEGACY_REPOSITORY_H_
