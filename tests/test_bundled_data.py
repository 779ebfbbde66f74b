"""The bundled tables are generated: rebuilding them from their scripts
must reproduce the committed files byte for byte."""

import build_published_data
import build_sthe_data


def test_the_scripts_rebuild_the_committed_tables():
    for script in (build_sthe_data, build_published_data):
        assert script.render(script.build()).encode() == \
            script.OUT.read_bytes(), script.OUT.name
