#include "common/DurableFile.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace qc {

namespace {

[[noreturn]] void
fail(const std::string &what, const std::string &path)
{
    throw std::runtime_error(what + " " + path + ": "
                             + std::strerror(errno));
}

std::string
parentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

void
writeImpl(const std::string &path, const std::string &content,
          std::size_t bytes, const std::string &tmpSuffix,
          bool durable)
{
    const std::string tmp = path + tmpSuffix;
    const int fd =
        ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0)
        fail("cannot create", tmp);
    const char *data = content.data();
    std::size_t left = bytes;
    while (left > 0) {
        const ssize_t n = ::write(fd, data, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            std::remove(tmp.c_str());
            fail("cannot write", tmp);
        }
        data += n;
        left -= static_cast<std::size_t>(n);
    }
    if (durable && ::fsync(fd) != 0) {
        ::close(fd);
        std::remove(tmp.c_str());
        fail("cannot fsync", tmp);
    }
    ::close(fd);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fail("cannot rename into", path);
    }
    if (durable)
        syncParentDir(path);
}

} // namespace

void
syncParentDir(const std::string &path)
{
    // Best-effort: some filesystems refuse O_RDONLY on directories
    // or fsync on a directory fd; the rename is already atomic.
    const int fd =
        ::open(parentDir(path).c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

void
syncFileSystem(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return;
#ifdef __linux__
    ::syncfs(fd);
#else
    ::sync();
#endif
    ::close(fd);
}

void
writeFileDurable(const std::string &path, const std::string &content,
                 const std::string &tmpSuffix)
{
    writeImpl(path, content, content.size(), tmpSuffix,
              /*durable=*/true);
}

void
writeFileAtomic(const std::string &path, const std::string &content,
                const std::string &tmpSuffix)
{
    writeImpl(path, content, content.size(), tmpSuffix,
              /*durable=*/false);
}

void
writeFileTorn(const std::string &path, const std::string &content,
              std::size_t tornBytes, const std::string &tmpSuffix)
{
    writeImpl(path, content, std::min(tornBytes, content.size()),
              tmpSuffix, /*durable=*/true);
}

} // namespace qc
