// qclint-fixture: path=src/hoard/HoardStore.cc
// qclint-fixture: expect=clean
#include <filesystem>

// The hoard commit path is whitelisted: its objects are published
// through writeFileAtomic, and its only raw renames are the
// quarantine moves of already-invalid files.
void quarantine(const std::filesystem::path &from,
                const std::filesystem::path &to)
{
    std::filesystem::rename(from, to);
}
